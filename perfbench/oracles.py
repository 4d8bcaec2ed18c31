"""Independent output checks for the rcons benchmark.

Nothing here calls the program or copies a recorded output: every
expected value is computed from first principles (genome-space
arithmetic, a brute-force isomorphism count, the paper's theorems and
the literature's consensus numbers). Each check returns a list of
problems; an empty list means the output passed.
"""

import itertools
import json
import statistics

# box(3,2,2) at max_n = 3: the hunt workload's fixed parameter box.
HUNT_BOX = (3, 2, 2)
HUNT_MAX_N = 3


def cell_size(values, ops, responses):
    return (responses * values) ** (values * ops)


def box_cells(box):
    max_v, max_o, max_r = box
    for v in range(1, max_v + 1):
        for o in range(1, max_o + 1):
            for r in range(1, max_r + 1):
                yield v, o, r


def box_size(box):
    return sum(cell_size(*cell) for cell in box_cells(box))


def genome_table(values, ops, responses, index):
    """Decodes a genome index into its (next value, response) slots,
    value-major with the op fastest, digit 0 first."""
    radix = responses * values
    table = []
    for _ in range(values * ops):
        index, digit = divmod(index, radix)
        table.append((digit // responses, digit % responses))
    return table


def class_key(values, ops, table):
    """Brute-force canonical form: the least relabeled table over all
    value and op permutations, responses renumbered by first use. The
    response count is not part of the key: an unused response label
    does not change the machine."""
    best = None
    for vp in itertools.permutations(range(values)):
        for op in itertools.permutations(range(ops)):
            slots = [None] * (values * ops)
            for v in range(values):
                for o in range(ops):
                    next_value, response = table[v * ops + o]
                    slots[vp[v] * ops + op[o]] = (vp[next_value], response)
            renumber = {}
            key = []
            for next_value, response in slots:
                if response not in renumber:
                    renumber[response] = len(renumber)
                key.append((next_value, renumber[response]))
            key = tuple(key)
            if best is None or key < best:
                best = key
    return values, ops, best


def walk(box):
    """Every genome of the box in the campaign's walk order, the arithmetic
    order of (values, ops, responses, index), with its brute-force class:
    (values, ops, responses, index, class key)."""
    for v, o, r in box_cells(box):
        for index in range(cell_size(v, o, r)):
            yield v, o, r, index, class_key(v, o, genome_table(v, o, r, index))


def count_classes(box):
    """Number of isomorphism classes in the box, by brute force."""
    return len({key for *_, key in walk(box)})


def parse_level(token):
    value, exact = token.split(".")
    return int(value), exact == "1"


def parse_hunt_db(text):
    """Returns the record lines of a shard database as tuples
    (values, ops, responses, index, hash, discerning, recording)."""
    records = []
    for line in text.splitlines():
        if not line.startswith("r "):
            continue
        f = line.split()
        records.append((int(f[1]), int(f[2]), int(f[3]), int(f[4]), f[5],
                        parse_level(f[6]), parse_level(f[7])))
    return records


def check_hunt(summary, db_text, classes, box=HUNT_BOX, max_n=HUNT_MAX_N):
    problems = []
    if summary.get("complete") is not True:
        problems.append("hunt did not complete")
    if summary.get("visited") != box_size(box):
        problems.append(f"visited {summary.get('visited')} != "
                        f"sum of cell sizes {box_size(box)}")
    if summary.get("profiled") != classes:
        problems.append(f"profiled {summary.get('profiled')} != "
                        f"{classes} brute-force classes")
    records = parse_hunt_db(db_text)
    if len(records) != classes:
        problems.append(f"database holds {len(records)} records, "
                        f"expected {classes}")
    keys = set()
    for v, o, r, index, _, disc, rec in records:
        if index >= cell_size(v, o, r):
            problems.append(f"record {v} {o} {r} {index} is outside its cell")
            continue
        keys.add(class_key(v, o, genome_table(v, o, r, index)))
        for name, (value, exact) in (("discerning", disc),
                                     ("recording", rec)):
            if not 1 <= value <= max_n:
                problems.append(f"record {v} {o} {r} {index}: {name} "
                                f"{value} outside [1, {max_n}]")
        if disc[1] and rec[1] and not 1 <= rec[0] <= disc[0] <= max_n:
            problems.append(f"record {v} {o} {r} {index}: exact levels "
                            f"violate 1 <= recording <= discerning <= max_n")
    if len(keys) != len(records):
        problems.append(f"{len(records) - len(keys)} records repeat a "
                        f"brute-force class")
    return problems


def check_identical(blobs, what):
    if len(set(blobs)) > 1:
        return [f"{what} differs across repetitions"]
    return []


# Verdicts the paper and the literature predict, independent of any run.
# recording <type> <n>: the recording protocol is safe on an n-recording
#   type (cas3 is recording at every n; x4 is exactly 2-recording).
# tnn 6 3 p: T_{6,3} has rcons = n' = 3, so its recoverable protocol is
#   safe for 3 processes and violates agreement for 4 or 5.
# tnnwf 6 3 / tnnwf 7 3: the wait-free protocol does not survive crashes.
# tas: test-and-set racing has rcons 1, so it breaks under recovery.
# cas 3 / cas 4: compare-and-swap solves recoverable consensus for any n.
VERIFY_EXPECTED = {
    "recording cas3 3": "SAFE",
    "recording x4 2": "SAFE",
    "tnn 6 3 3": "SAFE",
    "tnn 6 3 4": "VIOLATION",
    "tnn 6 3 5": "VIOLATION",
    "tnnwf 6 3": "VIOLATION",
    "tnnwf 7 3": "VIOLATION",
    "tas": "VIOLATION",
    "cas 4": "SAFE",
    "cas 3": "SAFE",
}
VERIFY_EXIT = {"SAFE": 0, "VIOLATION": 1}


def check_verify(spec, document, exit_code):
    expected = VERIFY_EXPECTED[spec]
    problems = []
    if document.get("verdict") != expected:
        problems.append(f"verify {spec}: verdict {document.get('verdict')}, "
                        f"theory says {expected}")
    if exit_code != VERIFY_EXIT[expected]:
        problems.append(f"verify {spec}: exit {exit_code}, expected "
                        f"{VERIFY_EXIT[expected]}")
    return problems


def state_counts(document):
    return [row.get("states") for row in document.get("safety", [])]


def check_backends_agree(spec, interp_document, aot_document):
    if state_counts(interp_document) != state_counts(aot_document):
        return [f"verify {spec}: state counts differ across backends "
                f"({state_counts(interp_document)} vs "
                f"{state_counts(aot_document)})"]
    return []


# (discerning, recording) at max_n = 4 from the literature: registers are
# 1/1; test-and-set, fetch-and-increment and swap are 2/1; compare-and-swap
# and sticky bits are universal, so both levels reach max_n; X_4 is 4/2.
CATALOG_LEVELS = {
    "register2": (1, 1), "tas": (2, 1), "fai3": (2, 1), "swap2": (2, 1),
    "cas3": ("max", "max"), "sticky2": ("max", "max"), "x4": (4, 2),
}
SERVE_PROFILE_MAX_N = 4


def check_catalog_profile(target, document, max_n=SERVE_PROFILE_MAX_N):
    want = CATALOG_LEVELS[target]
    problems = []
    for level, expected in zip(("discerning", "recording"), want):
        got = document[level]["value"]
        if expected == "max":
            if got < max_n:
                problems.append(f"profile {target}: {level} {got} < max_n "
                                f"{max_n}")
        elif got != expected:
            problems.append(f"profile {target}: {level} {got}, literature "
                            f"says {expected}")
    return problems


def check_serve(requests, responses):
    """requests: list of (id, request dict, class key or None);
    responses: list of parsed response lines."""
    problems = []
    by_id = {}
    for response in responses:
        rid = response.get("id")
        if rid in by_id:
            problems.append(f"id {rid} answered twice")
        by_id[rid] = response
    sent = {rid for rid, _, _ in requests}
    missing = sent - set(by_id)
    extra = set(by_id) - sent
    if missing:
        problems.append(f"{len(missing)} ids never answered")
    if extra:
        problems.append(f"{len(extra)} answers to unknown ids")
    by_class = {}
    hashes = {}
    for rid, request, key in requests:
        response = by_id.get(rid)
        if response is None:
            continue
        result = response.get("result", {})
        command = request["command"]
        if response.get("status") == "error":
            problems.append(f"{rid}: error {response.get('error')}")
            continue
        if command == "hunt":
            hashes.setdefault(result.get("canonical_hash"), set()).add(key)
            seen = (result.get("canonical_hash"),
                    json.dumps(result.get("discerning"), sort_keys=True),
                    json.dumps(result.get("recording"), sort_keys=True))
            first = by_class.setdefault(key, seen)
            if first != seen:
                problems.append(f"{rid}: class member answered {seen}, an "
                                f"isomorph got {first}")
        elif command == "profile":
            problems += check_catalog_profile(request["target"], result)
        elif command == "verify":
            problems += check_verify(request["spec"], result,
                                     response.get("exit_code"))
    for hash_hex, keys in hashes.items():
        if len(keys) > 1:
            problems.append(f"{len(keys)} brute-force classes share "
                            f"canonical_hash {hash_hex}")
    return problems


# The traced run: the layer timers wrap the program's own calls, so their
# counts must equal the program's own counters, and the layer times must
# account for the untraced wall time within LAYER_SUM_TOLERANCE.
LAYER_SUM_TOLERANCE = 0.15


def check_layer_counts(what, layers, counters, expected=()):
    """The bounds and decider calls the timers saw must be the program's
    own bounds.analyses and bounds.decider_runs; `expected` adds
    (layer count, value from the program) pairs."""
    deciders = layers.get("discerning_calls", 0) + \
        layers.get("recording_calls", 0)
    pairs = [("bounds_calls", layers.get("bounds_calls"),
              counters.get("bounds.analyses")),
             ("decider calls", deciders, counters.get("bounds.decider_runs"))]
    pairs += [(name, layers.get(name), want) for name, want in expected]
    return [f"traced {what}: {name} {got} != {want} from the program's own "
            f"output" for name, got, want in pairs if got != want]


def check_hunt_layers(summary, layers, counters):
    return check_layer_counts("hunt", layers, counters, [
        ("genomes", summary.get("visited")),
        ("canon_calls", summary.get("visited")),
        ("checkpoint_calls", counters.get("campaign.checkpoints")),
    ])


def check_verify_layers(layers, documents):
    """The states the timed safety calls returned must add up to the
    states the verify documents report."""
    want = sum(row.get("states", 0) for document in documents
               for row in document.get("safety", []))
    if layers.get("states") != want:
        return [f"traced verify: {layers.get('states')} states != {want} "
                f"in the verify documents"]
    return []


def check_layer_sum(ratios, what, tolerance=LAYER_SUM_TOLERANCE):
    """ratios: layer sum / untraced wall time, one per traced-untraced
    pair; the median pair decides."""
    ratio = statistics.median(ratios)
    if abs(ratio - 1.0) > tolerance:
        return [f"{what}: the layer times add up to {ratio:.1%} of the "
                f"untraced wall time (allowed {1 - tolerance:.0%} to "
                f"{1 + tolerance:.0%})"]
    return []
