import ast
import contextlib
import dataclasses
import hashlib
import inspect
import itertools
import os
import random
import select
import signal
import sys
import textwrap
import time
from fractions import Fraction
from unittest import mock

import pytest

from g2cubics import conormal, linalg, packets, rootdata, verify
from g2cubics.cubics import BinaryCubic, DualCubic, GroupElement, OrbitClass, classify, to_plain
from g2cubics.linalg import format_rational
from g2cubics.packets import DERIVED, Derived
from g2cubics.sheaves import TABLES, SimpleObject

TAMPERED = Derived(TABLES.with_flipped_evs(SimpleObject.IC1_C1, 1))


def _failed(scope):
    return {r.name for r in verify.run_checks(scope, TAMPERED) if not r.passed}


def test_tampered_evs_fail_the_nevs_checks():
    assert _failed("sheaves") == {"nevs-derivation", "nevs-diagonal"}


def test_tampered_evs_fail_every_packet_check_that_reads_the_tables():
    scope = {name for name, s, _ in verify.CHECKS if s == "packets"}
    assert _failed("packets") == scope - {"aubert-involution", "character-orthogonality"}


def test_tampered_evs_reach_wrapped_checks():
    # a tracer may swap each check for a *args wrapper; the derived facts
    # must still reach the checks that declare them
    def wrap(fn):
        return lambda *args, **kwargs: fn(*args, **kwargs)

    plain = list(verify.CHECKS)
    verify.CHECKS[:] = [(name, s, wrap(fn)) for name, s, fn in plain]
    try:
        assert _failed("sheaves") == {"nevs-derivation", "nevs-diagonal"}
    finally:
        verify.CHECKS[:] = plain


def _kernel_on(orbits, fn, basis):
    def kernel(r):
        return basis(fn(r)) if classify(r) in orbits else fn(r)

    return kernel


def _negated_coordinate_0(basis):
    return [DualCubic(-s.coeffs[0], *s.coeffs[1:]) for s in basis]


# the checks compare the dimensions the strata fix, and the kernel
# `conormal_kernel` returns, with the exact elimination, so a drift on
# either side fails them
@pytest.mark.parametrize(
    "module, name, tamper, failing",
    [
        (conormal, "microlocal_stabilizer",
         lambda fn: lambda p: dataclasses.replace(fn(p), dimension=1),
         {"microlocal-stabilizer-orders"}),
        (conormal, "conormal_kernel", lambda fn: _kernel_on({OrbitClass.C2}, fn, lambda basis: []),
         {"conormal-kernel-dimensions"}),
        (conormal, "conormal_kernel",
         lambda fn: _kernel_on({OrbitClass.C2}, fn, lambda basis: [s.scale(2) for s in basis]),
         {"conormal-kernel-dimensions"}),
        # coordinate 0 is zero at the canonical points, where the repeated
        # line is [1:0], so only the checks on moved representatives see this one
        (conormal, "conormal_kernel",
         lambda fn: _kernel_on({OrbitClass.C1, OrbitClass.C2}, fn, _negated_coordinate_0),
         {"conormal-kernel-dimensions", "conormal-kernel-typing", "conormal-kernel-equivariance"}),
        # the oracle itself drifting fails the same checks
        (verify, "_stabilizer_dimension", lambda fn: lambda *args: fn(*args) + 1,
         {"stabilizer-orders", "microlocal-stabilizer-orders"}),
    ],
    ids=[
        "microlocal-dimension",
        "empty-c2-kernel",
        "scaled-c2-kernel",
        "negated-c1-c2-kernel",
        "solved-dimension",
    ],
)
def test_geometry_checks_catch_a_tampered_dimension(module, name, tamper, failing):
    with mock.patch.object(module, name, tamper(getattr(module, name))):
        results = verify.run_checks("geometry", DERIVED)
    assert {r.name for r in results if not r.passed} == failing


def test_microlocal_orders_compare_the_geometry_with_the_arthur_record():
    # the stabilizer of stratum i must be A_psi_i: a group name that drifts
    # on the geometric side, or on the Arthur side, fails the check
    metas = rootdata.ARTHUR_PARAMETERS
    psi1_in_s3 = (metas[0], dataclasses.replace(metas[1], component_group="S3"), *metas[2:])
    _, base = conormal._BASES[2]
    with mock.patch.dict(conormal._BASES, {2: ("S3", base)}):
        assert verify.check_microlocal_orders() == (
            "stratum 2 moved by GroupElement([[1, 0], [0, 1]]): group S3"
        )
    with mock.patch.object(rootdata, "ARTHUR_PARAMETERS", psi1_in_s3):
        assert verify.check_microlocal_orders() == (
            "stratum 1 moved by GroupElement([[1, 0], [0, 1]]): order 2 != 6"
        )
    assert verify.check_microlocal_orders() is None


def _s3_changed(field, key, value):
    """A `packets.character_table` whose S3 table has one entry of `field`
    changed."""
    real = packets.character_table

    def table(group):
        got = real(group)
        if group != "S3":
            return got
        return dataclasses.replace(got, **{field: {**getattr(got, field), key: value}})

    return table


@pytest.mark.parametrize(
    "field, key, value, witness",
    [
        ("values", ("rho", "e"), 1, "stratum 0: total rank 3 != |G| = 6"),
        ("sizes", "transposition", 2, "stratum 0: class sizes sum to 5 != |G| = 6"),
    ],
)
def test_rank_accounting_reads_the_character_tables(field, key, value, witness):
    # the local systems' ranks are the character degrees chi(e) of the
    # table of each parameter's group, not constants of their own
    with mock.patch.object(packets, "character_table", _s3_changed(field, key, value)):
        assert verify.check_local_system_rank_accounting() == witness


def test_every_table_check_reads_its_tables():
    # a check that declares `derived` but never reads it runs under the table
    # checks although no change to the tables can reach it
    def reads_tables(fn):
        body = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0].body
        return any(
            isinstance(node, ast.Name) and node.id == "derived"
            for statement in body
            for node in ast.walk(statement)
        )

    plain = {name: fn for name, _, fn in verify.CHECKS}
    assert sorted(n for n in verify._TABLE_CHECKS if not reads_tables(plain[n])) == []
    assert len(verify._TABLE_CHECKS) == 19


# trials and seed of every randomized check: a speed-up must not come from
# fewer or different trials
RANDOMIZED_DEFAULTS = {
    "discriminant-repeated-root-oracle": (1000, 101),
    "classify-action-invariance": (1000, 102),
    "action-matrix-substitution": (100, 103),
    "action-matrix-entries": (5, 104),
    "action-matrix-homomorphism": (50, 105),
    "discriminant-equivariance": (200, 106),
    "hessian-quarter-determinant": (200, 107),
    "line-division-root-convention": (300, 108),
    "pairing-trace-of-moment": (1000, 109),
    "pairing-invariance": (1000, 110),
    "pairing-factored-hessian": (500, 111),
    "dual-action-matrix": (50, 112),
    "conormal-kernel-equivariance": (100, 113),
}

# SHA-256 of the first 200 draws per seed, as text: (_random_fraction,
# _random_group_element), each from a fresh generator
DRAW_DIGESTS = {
    101: ("4f2100397fbfca1e8fa7d2dfae8a35b9122f0aaef94f8bb18fdb85f85f0131ac",
          "37d6548cf10ecfc76770c1d77b686941492129c4098f9f1169417ee8a127b98d"),
    102: ("32bd5073906065e6ad1cc589cfb0caae0119a2f7c4e46442130bcfb170d15c5b",
          "e7ac022f7af848ceb0ce8be8ee6de149c868f7364d2d5156bca89a0f87749669"),
    103: ("f289f8b7985d1560c8baa7687dfe8c965320518b1caee9a6084d0662d399fa2b",
          "4b374d4a036500f9da7ae37dfec3cacdf644facd30e0e6f00837ad71a1e66230"),
    104: ("60130ed933479d1a09db61a997f4a8191dfb6101638d8dde3f371d0e55a37bd6",
          "56b0f5ebbef0f4a536c71dbeaf7b626c38344a24896fc1631cccbeef8a8f4b81"),
    105: ("c09ddeea8eca87d508a99c795bd2b4d34a970107ef281a5cd91e5d0440491678",
          "1e3d6247a90cde49d890fcd81ee4e88d8c657240170f54eb086064c3485e3dbe"),
    106: ("7b458e3c9848a555397351b09db38fdd64a1e559c1172a5c9b17b3fc6e1ceb3b",
          "dc0b5973ed9fcf9f56f8e54a87f0a2ad266808e0a1e19e452a40112c55b795ae"),
    107: ("c95edcee18fea92d39770cf66f53e7ad18d705da5f2828d35a31c2e06f190e0a",
          "629f0be252027c6683feaae1f672629fa091f2bc02883138d9005d298416fc35"),
    108: ("39b2d344c9f66396797b654fe62e24a481bdb5f2711448f0eb29f39c4526d894",
          "6764dfdecbe508745a5596302de69895179649de57d11a0c0d988c66d508ca60"),
    109: ("957aeb4172b0385d9564b913a198b6563eb5328c38e7808872c9f807b8c3d351",
          "46dc938cd778979784efa2e9402389319f1d441e335ccba8e8db4f23ff7daabb"),
    110: ("dc81d69cfb22eeefb3e1b48068eac451ba339c54061ac742dde34e9d784f9551",
          "4046cee7fa6098674eef23608b9fc0e85b4ff4ab661df81d8ac1c8e5dd2ea3cc"),
    111: ("b5d3e859fad334c1b3085604acaa298dfc998fa385ca1a3c3a01b7184b95a11e",
          "2ce6985bb8b3ab27532d0f10fff2a2d1ae50bd322b6d7e89b7fe9e427a45a195"),
    112: ("1118e83805f86b3d74582c9bbe12a1e4e081559d78762f6be19027ce735d4b53",
          "6cbfda2413aae89dd248cc147d59a35083e685d790fcd7a99d6f5a7cc67d30bc"),
    113: ("242d0044747f0087f20b4ebb6a95e32cb84fca992fbd3183c24a72598c72d79c",
          "f4936f1ce3400a5a919ae63dc7e6f1d05530fd2c92d3bac9dd669f214b6b00e9"),
}


def test_randomized_checks_keep_their_trials_and_seeds():
    defaults = {}
    for name, _, fn in verify.CHECKS:
        params = inspect.signature(fn).parameters
        if "trials" in params or "seed" in params:
            defaults[name] = (params["trials"].default, params["seed"].default)
    assert defaults == RANDOMIZED_DEFAULTS


def test_random_draws_are_unchanged():
    def digest(draw, seed):
        rng = random.Random(seed)
        return hashlib.sha256(" ".join(draw(rng) for _ in range(200)).encode()).hexdigest()

    for seed, (fractions, elements) in DRAW_DIGESTS.items():
        assert digest(lambda rng: format_rational(verify._random_fraction(rng)), seed) == fractions
        assert digest(lambda rng: repr(verify._random_group_element(rng)), seed) == elements


def test_random_fraction_is_randint_then_choice():
    # the direct getrandbits draws must return what randint(-4, 4) and
    # choice(_RANDOM_DENOMINATORS) return and consume the same bits
    for seed in range(10):
        fast, reference = random.Random(seed), random.Random(seed)
        for _ in range(10_000):
            num = reference.randint(-4, 4)
            den = reference.choice(verify._RANDOM_DENOMINATORS)
            assert verify._random_fraction(fast) == Fraction(num, den)
        assert fast.getstate() == reference.getstate()


def test_integer_form_draws_are_randint_then_choice():
    # the draws built in integer form, and the randint(-4, 4) draw of the
    # discriminant oracle, return the reference values and consume the same bits
    def pair(rng):
        return Fraction(rng.randint(-4, 4), rng.choice(verify._RANDOM_DENOMINATORS))

    def element(rng):
        while True:
            h = GroupElement(*(pair(rng) for _ in range(4)))
            if h.det() != 0:
                return h

    draws = [
        (verify._random_int, lambda rng: rng.randint(-4, 4)),
        (verify._random_cubic, lambda rng: BinaryCubic(*(pair(rng) for _ in range(4)))),
        (verify._random_dual, lambda rng: DualCubic(*(pair(rng) for _ in range(4)))),
        (verify._random_group_element, element),
    ]
    for seed in range(5):
        for draw, reference_draw in draws:
            fast, reference = random.Random(seed), random.Random(seed)
            for _ in range(2000):
                assert draw(fast) == reference_draw(reference)
            assert fast.getstate() == reference.getstate()


def _clears(check, trials):
    """Run check(trials=trials); return the number of common_denominator
    calls, counted in every module that imports it."""
    clears = []
    real = linalg.common_denominator

    def counted(values):
        clears.append(1)
        return real(values)

    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("g2cubics") and getattr(module, "common_denominator", None) is real
    ]
    with contextlib.ExitStack() as stack:
        for module in modules:
            stack.enter_context(mock.patch.object(module, "common_denominator", counted))
        assert check(trials=trials) is None
    return len(clears)


def test_random_operands_are_never_cleared():
    # the random operands are drawn in integer form, the results of
    # act/act_dual are born in it, and every reader shares the kept one, so
    # no trial clears a denominator
    for check in (
        verify.check_pairing_invariance,
        verify.check_classify_invariance,
        verify.check_discriminant_oracle,
        verify.check_pairing_trace,
    ):
        assert _clears(check, 100) == 0


def test_one_gcd_oracle_is_the_three_way_gcd():
    # gcd(r_x, r_y) against gcd(r, r_x, r_y) on every cubic with entries in -4..4
    for coeffs in itertools.product(range(-4, 5), repeat=4):
        p = to_plain(coeffs)
        three_way = verify._gcd_poly(verify._gcd_poly(p, verify._poly_dx(p)), verify._poly_dy(p))
        expected = not any(p) or len(three_way) > 1
        assert verify._has_repeated_root(BinaryCubic(*coeffs)) == expected, coeffs


# --- the two processes ---------------------------------------------------------------

TWO_CPUS = len(os.sched_getaffinity(0)) >= 2
needs_two_cpus = pytest.mark.skipif(not TWO_CPUS, reason="one CPU: run_checks does not fork")


@contextlib.contextmanager
def _one_cpu():
    """Pin this process to one CPU, which makes `run_checks` serial."""
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, affinity)


def _serial(scope, derived):
    with _one_cpu(), mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        return verify.run_checks(scope, derived)


def _split(scope, derived):
    """run_checks with the fork counted; it leaves no child and the signal
    mask as it found it."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        results = verify.run_checks(scope, derived)
    assert fork.call_count == int(TWO_CPUS)
    _assert_no_child()
    assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask
    return results


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _ran(log):
    """The (pid, position) lines the wrapped checks appended to `log`."""
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def _run_it(position, fn, *args):
    return fn(*args)


def _wait_for_the_other(log, parent):
    """Wait until the other process has appended a line to `log`."""
    me = os.getpid() == parent
    deadline = time.monotonic() + 10
    while all((pid == parent) == me for pid, _ in _ran(log)):
        assert time.monotonic() < deadline, "the other process took no check"
        time.sleep(0.001)


@contextlib.contextmanager
def _by_process(log, in_parent=_run_it, in_worker=_run_it):
    """CHECKS with every check wrapped: it appends "pid position" to the file
    `log`, then calls in_parent(position, check, *args) in the process that
    runs this test and in_worker(...) in the forked worker.  The first check
    each process takes waits until the other has taken one, so both take
    part whatever the checks cost."""
    parent, first = os.getpid(), [True]

    def wrap(position, fn):
        def check(*args):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {position}\n")
            if first:  # each process changes only its own copy
                first.clear()
                _wait_for_the_other(log, parent)
            behaviour = in_parent if os.getpid() == parent else in_worker
            return behaviour(position, fn, *args)

        return check

    checks = [(name, scope, wrap(i, fn)) for i, (name, scope, fn) in enumerate(verify.CHECKS)]
    with mock.patch.object(verify, "CHECKS", checks):
        yield


def _fails(*args):
    return "tampered"


def _raises(*args):
    raise ValueError("boom")


_WITNESSES = {_fails: "tampered", _raises: "ValueError: boom"}


def test_the_task_pipe_holds_every_registry_position():
    # the parent writes one byte per position
    assert len(verify.CHECKS) < 256


@pytest.mark.parametrize("scope", ["all", "geometry"])
@pytest.mark.parametrize("derived", [DERIVED, TAMPERED], ids=["shipped", "tamper-evs"])
def test_split_results_equal_serial_results(scope, derived):
    assert _split(scope, derived) == _serial(scope, derived)


@needs_two_cpus
@pytest.mark.parametrize("scope", ["all", "geometry"])
def test_each_position_runs_once_across_the_two_processes(scope, tmp_path):
    log = tmp_path / "ran"
    with _by_process(log):
        split = _split(scope, DERIVED)
    assert split == _serial(scope, DERIVED)
    ran = _ran(log)
    assert sorted(position for _, position in ran) == list(range(len(split)))
    assert len({pid for pid, _ in ran}) == 2


@needs_two_cpus
@pytest.mark.parametrize("scope", ["all", "geometry"])
def test_split_keeps_failing_and_raising_checks_of_either_half(scope, tmp_path):
    # each process fails every check it takes, or raises in it; the merge
    # keeps each witness at its registry position
    serial = _serial(scope, DERIVED)
    parent = os.getpid()
    for in_parent, in_worker in ((_fails, _raises), (_raises, _fails)):
        log = tmp_path / in_parent.__name__
        with _by_process(log, in_parent, in_worker):
            split = _split(scope, DERIVED)
        ran = _ran(log)
        assert sorted(position for _, position in ran) == list(range(len(serial)))
        assert len({pid for pid, _ in ran}) == 2
        by = {position: pid for pid, position in ran}
        assert [(r.name, r.scope) for r in split] == [(r.name, r.scope) for r in serial]
        assert [(r.passed, r.witness) for r in split] == [
            (False, _WITNESSES[in_parent if by[i] == parent else in_worker])
            for i in range(len(split))
        ]


@needs_two_cpus
def test_the_parent_runs_every_other_check_while_the_worker_is_held(tmp_path):
    # list scheduling: the worker is held in the first check it takes until
    # the parent has run every other one, so it can take no second check
    parent = os.getpid()
    serial = _serial("all", DERIVED)
    release_read, release_write = os.pipe()
    parent_ran, worker_held = [], []

    def held(position, fn, *args):
        # only the first check waits; one the parent never releases fails
        # rather than hangs
        if not worker_held:
            worker_held.append(position)
            assert select.select([release_read], [], [], 30)[0], "the worker was never released"
        return fn(*args)

    def counted(position, fn, *args):
        result = fn(*args)
        parent_ran.append(position)
        if len(parent_ran) == len(serial) - 1:
            os.write(release_write, b"r")
        return result

    log = tmp_path / "ran"
    try:
        with _by_process(log, in_parent=counted, in_worker=held):
            split = _split("all", DERIVED)
    finally:
        os.close(release_read)
        os.close(release_write)
    assert split == serial
    ran = _ran(log)
    worker = [position for pid, position in ran if pid != parent]
    assert len(worker) == 1
    assert sorted(position for pid, position in ran if pid == parent) == [
        i for i in range(len(serial)) if i not in worker
    ]


class _Stop(BaseException):
    pass


def _stops(*args):
    raise _Stop()


def _sleeps_once():
    """A behaviour that sleeps 60 s in the first check it meets."""
    slept = []

    def sleeps(position, fn, *args):
        if not slept:
            slept.append(True)
            time.sleep(60)
        return fn(*args)

    return sleeps


@needs_two_cpus
@pytest.mark.parametrize("in_worker", [False, True], ids=["parent-half", "worker-half"])
def test_a_base_exception_in_either_half_leaves_no_child(in_worker, tmp_path):
    # the parent kills a worker still busy (here asleep) rather than wait for
    # it; a worker leaves on a BaseException without a reply, so the parent
    # runs the check the worker held and meets the exception itself
    log = tmp_path / "ran"
    parent = os.getpid()

    def stops_where_the_worker_stopped(position, fn, *args):
        if any(pid != parent and p == position for pid, p in _ran(log)):
            raise _Stop()
        return fn(*args)

    behaviour = (stops_where_the_worker_stopped, _stops) if in_worker else (_stops, _sleeps_once())
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    start = time.monotonic()
    with _by_process(log, *behaviour), pytest.raises(_Stop):
        verify.run_checks("geometry", DERIVED)
    assert time.monotonic() - start < 30
    _assert_no_child()
    assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask


@needs_two_cpus
def test_a_fork_that_raises_restores_the_signal_mask():
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    with mock.patch.object(os, "fork", side_effect=_Stop), pytest.raises(_Stop):
        verify.run_checks("geometry", DERIVED)
    assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask


@needs_two_cpus
def test_a_worker_that_dies_is_replaced_by_the_parent(tmp_path):
    # the worker SIGKILLs itself in the first check it takes; the parent
    # runs that check again, and every other one
    log = tmp_path / "ran"
    parent = os.getpid()

    def dies(*args):
        os.kill(os.getpid(), signal.SIGKILL)

    with _by_process(log, in_worker=dies):
        split = _split("all", DERIVED)
    assert split == _serial("all", DERIVED)
    ran = _ran(log)
    assert len([position for pid, position in ran if pid != parent]) == 1
    assert sorted(position for pid, position in ran if pid == parent) == list(range(len(split)))


def test_a_failed_fork_runs_both_halves_in_the_parent():
    serial = _serial("all", DERIVED)
    with mock.patch.object(os, "fork", side_effect=OSError("no processes")):
        assert verify.run_checks("all", DERIVED) == serial
    _assert_no_child()


@pytest.mark.parametrize("scope", ["sheaves", "packets", "g2"])
def test_scopes_without_a_randomized_check_never_fork(scope):
    with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert all(r.passed for r in verify.run_checks(scope, DERIVED))


def test_the_randomized_checks_are_the_ones_with_trials():
    assert verify._RANDOMIZED_CHECKS == set(RANDOMIZED_DEFAULTS)
    assert {s for name, s, _ in verify.CHECKS if name in verify._RANDOMIZED_CHECKS} == {"geometry"}
