"""Fast self-test of the benchmark's own parts (a few seconds).

    python3 perfbench/selftest.py

It checks that the generator is deterministic, that the answer checker
rejects corrupted output (the captured output is corrupted, never the
program), that the deadline interrupts a hanging command, that the tracer
rebinds and restores every copy of a traced function, and the self-time
arithmetic on a synthetic span tree.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import unittest

import answers
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
from g2cubics import cli, conormal, cubics, verify  # noqa: E402


def _first_blocks(name: str, seed: int, count: int = 2):
    gen = workloads.blocks(name, seed)
    return [[(op.argv, op.expect) for op in next(gen)] for _ in range(count)]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(_first_blocks(name, 5), _first_blocks(name, 5), name)
        for name in ("query-mix", "coeff-sweep"):
            self.assertNotEqual(_first_blocks(name, 5), _first_blocks(name, 6), name)

    def test_block_composition_is_fixed(self):
        def shape(block):
            return sorted((op.argv[0], len(op.argv)) for op in block)

        for name in workloads.WORKLOADS:
            gen = workloads.blocks(name, 3)
            first = shape(next(gen))
            for _ in range(4):
                self.assertEqual(shape(next(gen)), first, name)

    def test_sweep_runs_one_big_classify_and_stabilizer_per_block(self):
        seen = set()
        gen = workloads.blocks("coeff-sweep", 0)
        for _ in range(15):
            block = next(gen)
            big = [op for op in block if op.argv[0] != "kernel" and len(op.argv[1]) > 6]
            self.assertEqual(sorted(op.argv[0] for op in big), ["classify", "stabilizer"])
            seen |= {(op.argv[0], op.expect["kind"], len(op.argv[1]) // 10) for op in big}
        # every construction meets both commands at 20, 100 and 1000 digits
        self.assertEqual(len(seen), 2 * len(workloads.CONSTRUCTIONS) * 3)

    def test_sizes_have_the_stated_digits(self):
        rng = random.Random(0)
        for digits in workloads.SIZES:
            for kind in workloads.CONSTRUCTIONS:
                r = workloads.cubic(kind, digits, rng)["r"]
                widest = max(len(str(abs(c.numerator))) for c in r)
                self.assertTrue(digits - 2 <= widest <= digits + 3, (kind, digits, widest))


def _corruptions(op, out: str):
    """Answers that differ from `out` in one fact the checker must catch."""
    kind = op.expect["check"]
    if kind == "golden":
        yield out.replace("\n", " \n", 1)
        return
    payload = json.loads(out)

    def edited(**changes):
        return json.dumps(dict(payload, **changes), sort_keys=True, indent=2) + "\n"

    if kind == "classify":
        yield edited(orbit="C2" if payload["orbit"] != "C2" else "C3")
        yield edited(residual_degree=payload["residual_degree"] + 1)
        if payload["rational_lines"]:
            yield edited(rational_lines=payload["rational_lines"][1:])
        if payload.get("stabilizer") and payload["stabilizer"]["generators"]:
            stab = dict(payload["stabilizer"], generators=payload["stabilizer"]["generators"][:-1])
            yield edited(stabilizer=stab)
    elif kind == "stabilizer":
        yield edited(dimension=payload["dimension"] + 1)
        if payload["generators"]:
            g = payload["generators"][-1]
            yield edited(generators=payload["generators"][:-1] + [[[g[0][0] + "1", g[0][1]], g[1]]])
    elif kind == "kernel":
        yield edited(dimension=payload["dimension"] + 1)
        if payload["basis"]:
            v = payload["basis"][0]
            yield edited(basis=[[v[0] + "7", *v[1:]], *payload["basis"][1:]])
    elif kind == "pair":
        yield edited(pairing=payload["pairing"] + "1")
    elif kind == "moment":
        yield edited(is_zero=not payload["is_zero"])
    elif kind == "lambda":
        yield edited(stratum=None if payload["stratum"] is not None else 1)
    elif kind == "formal-degree":
        yield edited(gamma0=payload["gamma0"] + "3")
    elif kind == "verify":
        checks = [dict(payload["checks"][0], passed=False), *payload["checks"][1:]]
        yield edited(checks=checks)
        yield edited(passed=payload["passed"] - 1)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.checker = answers.Checker(run.SRC)

    def _ops(self):
        ops = next(workloads.blocks("query-mix", 9))
        ops += [op for op in next(workloads.blocks("coeff-sweep", 9)) if len(op.argv[1]) <= 6]
        return ops

    def test_rejects_corrupted_answers(self):
        kinds = set()
        for op in self._ops():
            res = run.call(cli, op.argv, None)
            want, _ = answers.expected_exit(op)
            self.assertIsNone(self.checker.check(op, res.rc, res.out, res.err), op.argv)
            self.assertIsNotNone(self.checker.check(op, 2 if want == 0 else 0, res.out, res.err), op.argv)
            if want != 0:
                kinds.add("error-exit")
                self.assertIsNotNone(self.checker.check(op, res.rc, "{}\n", res.err), op.argv)
                # exit 2 for another reason, as when `cli.main` turns a crash
                # into an input error
                crash = "error: unsupported operand type(s) for +: 'int' and 'str'\n"
                self.assertIsNotNone(self.checker.check(op, res.rc, res.out, crash), op.argv)
                continue
            for bad in _corruptions(op, res.out):
                kinds.add(op.expect["check"])
                self.assertIsNotNone(self.checker.check(op, res.rc, bad, res.err), (op.argv, bad[:200]))
        self.assertEqual(
            kinds,
            {"golden", "classify", "stabilizer", "kernel", "pair", "moment", "lambda", "formal-degree", "verify",
             "error-exit"},
        )


class DeadlineTest(unittest.TestCase):
    def test_deadline_interrupts_a_hanging_command(self):
        self.assertFalse(issubclass(run.DeadlineExceeded, Exception))
        op = workloads.cubic_op("classify", workloads.cubic("three-lines", 20, random.Random(1)), 0.05)
        old = signal.signal(signal.SIGALRM, run._on_alarm)
        try:
            res = run.call(cli, op.argv, op.deadline_s)
        finally:
            signal.signal(signal.SIGALRM, old)
        self.assertTrue(res.timed_out)
        self.assertIsNone(res.rc)
        self.assertLess(res.elapsed_ns, 2e9)


class TracerTest(unittest.TestCase):
    def test_rebinds_every_copy_and_restores(self):
        original = cubics.act
        tracer = spans.Tracer()
        self.assertEqual(tracer.missing, [])
        op = workloads.cubic_op("classify", workloads.cubic("three-lines", 1, random.Random(2)))
        plain = run.call(cli, op.argv, None)
        tracer.enable(0)
        try:
            self.assertIsNot(conormal.act, original)
            self.assertIs(conormal.act, cubics.act)
            self.assertIs(verify.act, cubics.act)
            traced = run.call(cli, op.argv, None)
        finally:
            tracer.disable()
        self.assertIs(conormal.act, original)
        self.assertIs(verify.act, original)
        self.assertEqual((plain.rc, plain.out), (traced.rc, traced.out))
        calls, own = tracer.summary()
        self.assertEqual(calls["cli.main"], 1)
        self.assertEqual(calls["conormal.stabilizer_of_cubic"], 1)
        self.assertGreaterEqual(calls["cubics.act"], 6)
        self.assertTrue(all(t >= 0 for t in own.values()))
        # the self times of one command's spans add up to its root span
        (root,) = [sp for sp in tracer.spans if sp[1] == -1]
        self.assertEqual(sum(own.values()), root[4] - root[3])

    def test_self_time_on_a_synthetic_tree(self):
        # nested calls as the wrappers record them, in order of start:
        #   0 root [0, 100]
        #   1   a [10, 40]
        #   2     a's child [15, 20]
        #   3     a's child [22, 30]
        #   4   b [50, 90]
        #   5     b's child [60, 60], cut off by a deadline: zero length
        start = [0, 10, 15, 22, 50, 60]
        end = [100, 40, 20, 30, 90, 60]
        parent = [-1, 0, 1, 1, 0, 4]
        self.assertEqual(spans.self_times(start, end, parent), [30, 17, 5, 8, 40, 0])


if __name__ == "__main__":
    unittest.main()
