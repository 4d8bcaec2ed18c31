"""Tests for the benchmark's output checks: each must pass a faithful
output and reject a doctored one.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import oracles


def synthetic_hunt():
    """A database the oracle must accept: the first genome of every
    brute-force class in walk order, with consistent levels."""
    seen = set()
    lines = ["rcons-hunt v1"]
    for v, o, r in oracles.box_cells(oracles.HUNT_BOX):
        for index in range(oracles.cell_size(v, o, r)):
            key = oracles.class_key(v, o, oracles.genome_table(v, o, r, index))
            if key not in seen:
                seen.add(key)
                lines.append(f"r {v} {o} {r} {index} {len(seen):016x} "
                             f"2.1 1.1 1 k{len(seen)}")
    lines.append("end")
    summary = {"complete": True, "visited": oracles.box_size(oracles.HUNT_BOX),
               "profiled": len(seen)}
    return summary, "\n".join(lines) + "\n", len(seen)


class HuntCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.summary, cls.db, cls.classes = synthetic_hunt()

    def test_counts_match_the_paper_box(self):
        self.assertEqual(oracles.box_size(oracles.HUNT_BOX), 47928)
        self.assertEqual(self.classes, 2113)

    def test_accepts_faithful_output(self):
        self.assertEqual(
            oracles.check_hunt(self.summary, self.db, self.classes), [])

    def test_rejects_dropped_record(self):
        lines = self.db.splitlines(keepends=True)
        doctored = "".join(lines[:5] + lines[6:])
        self.assertNotEqual(
            oracles.check_hunt(self.summary, doctored, self.classes), [])

    def test_rejects_changed_level(self):
        doctored = self.db.replace(" 2.1 1.1 ", " 2.1 3.1 ", 1)
        self.assertNotEqual(
            oracles.check_hunt(self.summary, doctored, self.classes), [])

    def test_rejects_isomorph_in_place_of_a_class(self):
        lines = self.db.splitlines(keepends=True)
        # One class recorded twice, another one lost.
        lines[2] = lines[1]
        self.assertNotEqual(
            oracles.check_hunt(self.summary, "".join(lines), self.classes), [])

    def test_rejects_wrong_visited_and_profiled(self):
        for key in ("visited", "profiled"):
            doctored = dict(self.summary, **{key: self.summary[key] - 1})
            self.assertNotEqual(
                oracles.check_hunt(doctored, self.db, self.classes), [])

    def test_rejects_databases_that_differ_across_repetitions(self):
        self.assertEqual(oracles.check_identical([self.db, self.db], "db"),
                         [])
        self.assertNotEqual(
            oracles.check_identical([self.db, self.db + "x"], "db"), [])


def relabel(values, ops, table, value_perm, op_perm, response_perm):
    out = [None] * (values * ops)
    for v in range(values):
        for o in range(ops):
            next_value, response = table[v * ops + o]
            out[value_perm[v] * ops + op_perm[o]] = (
                value_perm[next_value], response_perm[response])
    return out


class ClassKey(unittest.TestCase):
    def test_isomorphs_share_a_key(self):
        table = oracles.genome_table(3, 2, 2, 38130)
        moved = relabel(3, 2, table, [2, 0, 1], [1, 0], [1, 0])
        self.assertNotEqual(moved, table)
        self.assertEqual(oracles.class_key(3, 2, moved),
                         oracles.class_key(3, 2, table))


class VerifyCheck(unittest.TestCase):
    def test_accepts_theory(self):
        self.assertEqual(
            oracles.check_verify("tnn 6 3 3", {"verdict": "SAFE"}, 0), [])
        self.assertEqual(
            oracles.check_verify("tnn 6 3 4", {"verdict": "VIOLATION"}, 1),
            [])

    def test_rejects_flipped_verdict(self):
        self.assertNotEqual(
            oracles.check_verify("tnn 6 3 4", {"verdict": "SAFE"}, 0), [])
        self.assertNotEqual(
            oracles.check_verify("cas 4", {"verdict": "VIOLATION"}, 1), [])

    def test_rejects_backend_state_count_mismatch(self):
        interp = {"safety": [{"states": 10}, {"states": 12}]}
        aot = {"safety": [{"states": 10}, {"states": 13}]}
        self.assertEqual(oracles.check_backends_agree("tas", interp, interp),
                         [])
        self.assertNotEqual(oracles.check_backends_agree("tas", interp, aot),
                            [])


def hunt_response(rid, hash_hex, discerning):
    return {"id": rid, "status": "ok", "exit_code": 0,
            "result": {"canonical_hash": hash_hex,
                       "discerning": {"value": discerning, "exact": True},
                       "recording": {"value": 1, "exact": True}}}


class ServeCheck(unittest.TestCase):
    def setUp(self):
        hunt = {"command": "hunt"}
        profile = {"command": "profile", "target": "x4"}
        verify = {"command": "verify", "spec": "tas"}
        self.requests = [("a", hunt, "k1"), ("b", hunt, "k1"),
                         ("c", profile, None), ("d", verify, None)]
        self.responses = [
            hunt_response("a", "00ff", 2), hunt_response("b", "00ff", 2),
            {"id": "c", "status": "ok", "exit_code": 0,
             "result": {"discerning": {"value": 4}, "recording": {"value": 2}}},
            {"id": "d", "status": "violation", "exit_code": 1,
             "result": {"verdict": "VIOLATION"}},
        ]

    def test_accepts_faithful_output(self):
        self.assertEqual(oracles.check_serve(self.requests, self.responses),
                         [])

    def test_rejects_missing_and_repeated_ids(self):
        self.assertNotEqual(
            oracles.check_serve(self.requests, self.responses[1:]), [])
        self.assertNotEqual(
            oracles.check_serve(self.requests,
                                self.responses + self.responses[:1]), [])

    def test_rejects_isomorphs_with_different_answers(self):
        self.responses[1] = hunt_response("b", "00ff", 3)
        self.assertNotEqual(
            oracles.check_serve(self.requests, self.responses), [])

    def test_rejects_changed_catalog_level(self):
        self.responses[2]["result"]["recording"]["value"] = 3
        self.assertNotEqual(
            oracles.check_serve(self.requests, self.responses), [])

    def test_rejects_flipped_verify_verdict(self):
        self.responses[3] = {"id": "d", "status": "ok", "exit_code": 0,
                             "result": {"verdict": "SAFE"}}
        self.assertNotEqual(
            oracles.check_serve(self.requests, self.responses), [])

    def test_rejects_two_classes_with_one_hash(self):
        self.requests.append(("e", {"command": "hunt"}, "k2"))
        self.responses.append(hunt_response("e", "0100", 2))
        self.assertEqual(oracles.check_serve(self.requests, self.responses),
                         [])
        self.responses[-1] = hunt_response("e", "00ff", 2)
        self.assertNotEqual(
            oracles.check_serve(self.requests, self.responses), [])


class TracedChecks(unittest.TestCase):
    def setUp(self):
        self.summary = {"visited": 47928}
        self.counters = {"campaign.checkpoints": 750, "bounds.analyses": 2113,
                         "bounds.decider_runs": 1004}
        self.layers = {"genomes": 47928, "canon_calls": 47928,
                       "checkpoint_calls": 750, "bounds_calls": 2113,
                       "discerning_calls": 592, "recording_calls": 412}

    def test_accepts_counts_that_match_the_program(self):
        self.assertEqual(oracles.check_hunt_layers(
            self.summary, self.layers, self.counters), [])

    def test_rejects_timers_that_miss_calls(self):
        for key in self.layers:
            doctored = dict(self.layers, **{key: self.layers[key] - 1})
            self.assertNotEqual(oracles.check_hunt_layers(
                self.summary, doctored, self.counters), [], key)

    def test_rejects_a_changed_checkpoint_count(self):
        counters = dict(self.counters, **{"campaign.checkpoints": 1})
        self.assertNotEqual(oracles.check_hunt_layers(
            self.summary, self.layers, counters), [])

    def test_verify_states_must_match_the_documents(self):
        documents = [{"safety": [{"states": 40}, {"states": 2}]}]
        self.assertEqual(
            oracles.check_verify_layers({"states": 42}, documents), [])
        self.assertNotEqual(
            oracles.check_verify_layers({"states": 41}, documents), [])

    def test_layer_sum_within_tolerance(self):
        self.assertEqual(oracles.check_layer_sum([0.9, 1.02, 1.1], "hunt"),
                         [])
        self.assertNotEqual(
            oracles.check_layer_sum([0.5, 0.8, 0.84], "hunt"), [])
        self.assertNotEqual(
            oracles.check_layer_sum([1.2, 1.3, 1.0], "hunt"), [])


if __name__ == "__main__":
    unittest.main()
