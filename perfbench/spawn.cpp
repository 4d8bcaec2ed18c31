// perfbench_spawn: runs one program and reports what it cost.
//
//   perfbench_spawn <report-file> <timeout-seconds> <program> [args...]
//
// Runs <program> with the inherited stdin, stdout and stderr, waits for it
// and writes one line to <report-file>:
//
//   <wall seconds> <exit code> <wchar bytes> <peak RSS KiB>
//
// The exit code is the shell's: 128 + signal for a signalled child. wchar is
// read from /proc/<pid>/io while the child is a zombie (waitid WNOWAIT),
// before it is reaped. SIGTERM and SIGINT are passed on to the child; after
// <timeout-seconds> the child is killed and the reported exit code is 137.
// If this process's parent dies, it gets SIGTERM and passes it on; if this
// process dies, the child gets SIGKILL. Nothing outlives the benchmark.
//
// Why it exists: Linux carries the peak RSS of the image a process replaces
// at exec into the process's ru_maxrss. A child that Python starts inherits
// the Python interpreter's peak RSS that way (13.7 MB for `rcons_cli list`,
// 213 MB after the parent had touched 200 MB), so ru_maxrss measured from
// Python says more about the benchmark than about the program. Started from
// this small process instead, the child inherits about 1 MB.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

volatile sig_atomic_t child_pid = 0;

void forward(int sig) {
  if (child_pid > 0) kill(child_pid, sig == SIGALRM ? SIGKILL : sig);
}

double now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

long long read_wchar(pid_t pid) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/%d/io", static_cast<int>(pid));
  std::FILE* io = std::fopen(path, "r");
  if (io == nullptr) return -1;
  char line[128];
  long long wchar = -1;
  while (std::fgets(line, sizeof line, io) != nullptr) {
    if (std::strncmp(line, "wchar:", 6) == 0) wchar = std::atoll(line + 6);
  }
  std::fclose(io);
  return wchar;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: perfbench_spawn REPORT TIMEOUT PROGRAM [ARGS...]\n");
    return 2;
  }
  const char* report = argv[1];
  const unsigned timeout = static_cast<unsigned>(std::atoi(argv[2]));

  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = forward;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGALRM, &action, nullptr);
  const pid_t parent = getppid();
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (getppid() != parent) return 1;  // the parent is already gone

  const pid_t self = getpid();
  const double start = now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 1;
  }
  if (pid == 0) {
    signal(SIGTERM, SIG_DFL);
    signal(SIGINT, SIG_DFL);
    signal(SIGALRM, SIG_DFL);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != self) _exit(1);  // this process is already gone
    execv(argv[3], argv + 3);
    std::perror("perfbench_spawn: exec");
    _exit(127);
  }
  child_pid = pid;
  if (timeout > 0) alarm(timeout);

  siginfo_t info;
  std::memset(&info, 0, sizeof info);
  while (waitid(P_PID, pid, &info, WEXITED | WNOWAIT) != 0) {
    if (errno != EINTR) {
      std::perror("perfbench_spawn: waitid");
      return 1;
    }
  }
  const double seconds = now() - start;
  const long long wchar = read_wchar(pid);
  int status = 0;
  rusage usage;
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_spawn: wait4");
      return 1;
    }
  }
  const int code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);

  std::FILE* out = std::fopen(report, "w");
  if (out == nullptr) {
    std::perror("perfbench_spawn: report");
    return 1;
  }
  std::fprintf(out, "%.9f %d %lld %ld\n", seconds, code, wchar,
               usage.ru_maxrss);
  std::fclose(out);
  return 0;
}
