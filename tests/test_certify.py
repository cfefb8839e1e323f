"""Log-convexity certifier tests: defect ratios, grid estimates, checks."""

import math
import re
import warnings

import numpy as np
import pytest

from hhcert.certify import (
    ZERO_TOLERANCE,
    CertStatus,
    ConvexityKind,
    NotPositiveError,
    check_modulus,
    estimate_modulus,
    log_defect,
    modulus_bracket,
    _check_denominators,
    _defect_chunks,
    _min_over_grid,
    _positive_values,
    _spacing,
)
from hhcert.expr import DomainError, EvaluationError, Expression, Refused, parse

EXP_X2 = parse("exp(x^2)")
EXP_MINUS_X2 = parse("exp(-x^2)")  # log-concave: the bracket settles not_log_convex
EXP_X = parse("exp(x)")
ONE = parse("1")
POWER = parse("(x + 0.3)^1.5")  # log-concave: negative minimum
# log-concave with its peak at 0.4, between the bracket's edges on [0, 1] and
# [0.25, 1.75]: the grid samples ratios below c_up there, and decides c_star
# where the bracket is forced open
PEAK = parse("exp(-(x - 0.4)^2)")


def _defect_grid(f: Expression, xs: np.ndarray, ys: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Defect ratios over the whole grid xs x ys x lams in one pass; invalid triples are +inf.

    The reference the chunked walk is tested against.  Invalid means lam
    outside the open unit interval or a pair skipped as in ``_defect_chunks``.
    Every lam is computed, 0 and 1 included, and the invalid triples are
    masked afterwards; f is checked with ``_positive_values`` on each point
    set, so no clipping or positivity shortcut of the walk is shared.
    """
    lfx = np.log(_positive_values(f, xs))
    lfy = np.log(_positive_values(f, ys))
    spacing = max(_spacing(xs), _spacing(ys))
    X = xs[:, None, None]
    Y = ys[None, :, None]
    LAM = lams[None, None, :]
    MU = 1.0 - LAM
    t, work, defect = np.empty((3, xs.size, ys.size, lams.size))
    np.add(LAM * X, MU * Y, out=t)
    fT = _positive_values(f, t)  # may be t itself (f = x), so t is not reused below
    diff = X - Y
    pair_ok = np.abs(diff) > 0.49 * spacing
    lam_ok = (LAM > 0.0) & (LAM < 1.0)
    sq = diff**2
    lam_mu = LAM * MU
    _check_denominators(sq[pair_ok], lam_mu[lam_ok], xs, ys, lams.size)
    with np.errstate(all="ignore"):
        np.log(fT, out=work)
        np.subtract(lfx[:, None, None], work, out=defect)
        defect *= LAM
        np.subtract(lfy[None, :, None], work, out=work)
        work *= MU
        defect += work
        np.expm1(defect, out=defect)
        defect *= fT
        np.multiply(lam_mu, sq, out=work)
        defect /= work
    np.copyto(defect, np.inf, where=~pair_ok)
    np.copyto(defect, np.inf, where=~lam_ok)
    return defect


def _grid_min(defects: np.ndarray, xs, ys, lams) -> tuple:
    """The minimum of a full grid of defects, and its first (x, y, lam) in C order.

    Flat C-order argmin returns the first minimum, i.e. the smallest
    (x, y, lam) lexicographically over the ascending grids.
    """
    _, n_y, n_lam = defects.shape
    i, rest = divmod(int(defects.argmin()), n_y * n_lam)
    j, k = divmod(rest, n_lam)
    return float(defects[i, j, k]), (float(xs[i]), float(ys[j]), float(lams[k]))


# --------------------------------------------------------------------------
# log_defect
# --------------------------------------------------------------------------

def test_defect_of_constant_is_exactly_zero():
    assert log_defect(ONE, 0.1, 0.7, 0.25) == 0.0
    assert log_defect(parse("2.5"), -1.0, 1.0, 0.5) == 0.0


def test_defect_of_log_affine_is_zero_to_rounding():
    # geometric interpolation is exact for e^x; only exp/log rounding remains
    for x, y, lam in [(0.0, 1.0, 0.5), (0.2, 0.9, 0.3), (-1.0, 0.5, 0.7)]:
        assert abs(log_defect(EXP_X, x, y, lam)) <= 1e-12


def test_defect_running_example():
    # 4*(sqrt(e) - e^{1/4}) = 1.45878341604954665 (50-digit arithmetic)
    assert log_defect(EXP_X2, 0.0, 1.0, 0.5) == pytest.approx(
        1.4587834160495466, rel=1e-13
    )


def test_defect_rejects_degenerate_triples():
    with pytest.raises(ValueError):
        log_defect(EXP_X2, 0.5, 0.5, 0.5)
    for bad_lam in [0.0, 1.0, -0.1, 1.1]:
        with pytest.raises(ValueError):
            log_defect(EXP_X2, 0.0, 1.0, bad_lam)


def test_defect_rejects_non_positive_function():
    with pytest.raises(NotPositiveError) as err:
        log_defect(parse("x"), -1.0, 1.0, 0.5)
    assert err.value.x is not None


def test_defect_names_an_underflowing_denominator():
    # lam*(1-lam)*(x-y)^2 underflows to 0: the walk's named error, not a
    # ZeroDivisionError
    with pytest.raises(ValueError, match="too narrow") as err:
        log_defect(EXP_X2, 0.0, 1e-170, 0.5)
    assert "1x1x1 grid over x in [0.0, 0.0], y in [1e-170, 1e-170]" in str(err.value)


@pytest.mark.parametrize("f", [EXP_X2, EXP_X, ONE, POWER], ids=["exp_x2", "exp_x", "one", "power"])
def test_defect_is_the_grid_walk_on_one_triple_bit_for_bit(f):
    for x, y, lam in [(0.0, 1.0, 0.5), (0.9, 0.1, 0.3), (0.2, 0.7, 0.8125), (1.0, 0.4, 1e-3)]:
        value, witness = _min_over_grid(f, np.array([x]), np.array([y]), np.array([lam]))
        assert witness == (x, y, lam)
        assert _bits(log_defect(f, x, y, lam)) == _bits(value)


@pytest.mark.parametrize("lam", [0.5, 0.25, 0.375, 0.8125])
def test_defect_symmetry_exact_for_dyadic_lambda(lam):
    # (x, lam) <-> (y, 1-lam) is an exact symmetry when 1-lam is exact
    a = log_defect(EXP_X2, 0.1, 0.9, lam)
    b = log_defect(EXP_X2, 0.9, 0.1, 1.0 - lam)
    assert a == b


@pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
def test_defect_scaling(t):
    scaled = parse(f"{t!r}*exp(x^2)")
    for x, y, lam in [(0.0, 1.0, 0.5), (0.2, 0.8, 0.3)]:
        assert log_defect(scaled, x, y, lam) == pytest.approx(
            t * log_defect(EXP_X2, x, y, lam), rel=1e-12
        )


def test_geometric_bound_implies_arithmetic_bound():
    # a log-defect of c forces a plain convexity defect of at least c
    rng = np.random.default_rng(13)
    for _ in range(200):
        x, y = sorted(rng.uniform(0.0, 1.0, size=2))
        if y - x < 1e-3:
            continue
        lam = float(rng.uniform(0.05, 0.95))
        ld = log_defect(EXP_X2, x, y, lam)
        fx, fy = EXP_X2(x), EXP_X2(y)
        ft = EXP_X2(lam * x + (1 - lam) * y)
        convex = (lam * fx + (1 - lam) * fy - ft) / (lam * (1 - lam) * (x - y) ** 2)
        assert convex >= ld - 1e-12 * max(1.0, abs(ld))


# --------------------------------------------------------------------------
# estimate_modulus
# --------------------------------------------------------------------------

def test_constant_certifies_zero_exactly():
    cert = estimate_modulus(ONE, 0.0, 1.0)
    assert cert.c_star == 0.0
    assert cert.status is CertStatus.CERTIFIED_ZERO
    assert cert.kind is ConvexityKind.LOG_CONVEX


def test_log_affine_certifies_zero_at_coarse_grid():
    # |c_star| for e^x is pure exp/log rounding noise; a coarse grid keeps the
    # 1/(lam(1-lam)(x-y)^2) amplification below the 1e-12 assertion
    cert = estimate_modulus(EXP_X, 0.0, 1.0, grid_n=9, refine_rounds=0)
    assert abs(cert.c_star) <= 1e-12


def test_exp_x2_certifies_strictly_positive():
    cert = estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=64, refine_rounds=3)
    assert cert.status is CertStatus.CERTIFIED_POSITIVE
    assert cert.kind is ConvexityKind.STRONGLY_LOG_CONVEX
    assert cert.c_star > 0.999  # the true infimum is 1.0, approached at x=y=0


@pytest.mark.parametrize("f", [EXP_X2, ONE, POWER], ids=["exp_x2", "one", "power"])
def test_defect_grid_is_the_written_out_formula_bit_for_bit(f):
    # the walk writes into reused buffers, but each step must stay the same
    # ufunc on the same grouping: the grouped log differences are what make
    # constants certify exactly 0
    xs = np.linspace(0.0, 1.0, 24)
    ys = np.linspace(0.1, 0.7, 17)
    lams = np.linspace(0.0, 1.0, 11)
    X, Y, LAM = xs[:, None, None], ys[None, :, None], lams[None, None, :]
    fT = f.eval_array(LAM * X + (1.0 - LAM) * Y)
    with np.errstate(all="ignore"):
        lfx, lfy, lfT = np.log(f.eval_array(X)), np.log(f.eval_array(Y)), np.log(fT)
        delta = LAM * (lfx - lfT) + (1.0 - LAM) * (lfy - lfT)
        ratio = fT * np.expm1(delta) / (LAM * (1.0 - LAM) * (X - Y) ** 2)
    spacing = max(xs[1] - xs[0], ys[1] - ys[0])
    valid = (np.abs(X - Y) > 0.49 * spacing) & (LAM > 0.0) & (LAM < 1.0)
    assert np.array_equal(_defect_grid(f, xs, ys, lams), np.where(valid, ratio, np.inf))


def test_exp_x2_against_dense_brute_force_oracle():
    # independent cross-check: one dense 512^3 pass, no refinement, chunked
    # to keep memory flat; the infimum of the defect of e^{x^2} on [0,1] is
    # 1.0, approached in the x -> y corner
    n = 512
    xs = np.linspace(0.0, 1.0, n)
    lams = np.arange(1, n + 1, dtype=float) / (n + 1)
    dense_min = np.inf
    for i in range(0, n, 8):
        block = _defect_grid(EXP_X2, xs[i : i + 8], xs, lams)
        dense_min = min(dense_min, float(block.min()))
    assert dense_min > 0.0
    assert dense_min == pytest.approx(1.0, abs=1e-4)
    cert = estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=64, refine_rounds=3)
    # the refined estimate digs at least as deep as the dense pass (up to the
    # rounding noise floor at the smallest resolved denominators)
    assert cert.c_star <= dense_min + 1e-6


@pytest.mark.parametrize("chunk", [20_000, 1_000], ids=["x_rows", "y_columns"])
@pytest.mark.parametrize("f", [EXP_X2, ONE, POWER], ids=["exp_x2", "one", "power"])
def test_chunked_grid_walk_matches_single_pass(monkeypatch, f, chunk):
    # the grid is walked in chunks of (x, y) pairs: 416 pairs, several x-rows
    # ending mid-row, or 20, shorter than one x-row.  The walk must be
    # bitwise identical to one full pass, including the witness tie-break
    # (every defect of ONE is exactly 0, so its witness is the first valid
    # triple of the whole grid)
    import hhcert.certify as certify_module

    xs = np.linspace(0.0, 1.0, 48)
    lams = np.arange(1, 49, dtype=float) / 49.0
    reference = _grid_min(_defect_grid(f, xs, xs, lams), xs, xs, lams)
    cert = estimate_modulus(f, 0.0, 1.0, grid_n=48, refine_rounds=2)
    check = check_modulus(f, 0.0, 1.0, 0.5, grid_n=48)
    monkeypatch.setattr(certify_module, "_TILE_TRIPLES", chunk)
    assert certify_module._min_over_grid(f, xs, xs, lams) == reference
    assert estimate_modulus(f, 0.0, 1.0, grid_n=48, refine_rounds=2) == cert
    assert check_modulus(f, 0.0, 1.0, 0.5, grid_n=48) == check


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _chunked_defects(monkeypatch, f, xs, ys, lams, chunk):
    """Walk the grid and stitch its chunks back into one array over the admissible lam."""
    import hhcert.certify as certify_module

    inner = (lams > 0.0) & (lams < 1.0)
    stitched = np.full((xs.size * ys.size, int(inner.sum())), np.nan)
    monkeypatch.setattr(certify_module, "_TILE_TRIPLES", chunk)
    start = 0
    with np.errstate(all="ignore"):
        for x, y, kept, ratios in _defect_chunks(f, xs, ys, lams):
            assert np.array_equal(kept, lams[inner])
            pairs = slice(start, start + x.size)
            assert np.array_equal(x, np.repeat(xs, ys.size)[pairs])
            assert np.array_equal(y, np.tile(ys, xs.size)[pairs])
            stitched[pairs] = ratios
            start += x.size
    assert start == xs.size * ys.size
    result = _min_over_grid(f, xs, ys, lams)
    monkeypatch.undo()
    return result, stitched.reshape(xs.size, ys.size, -1), inner


@pytest.mark.parametrize(
    "chunk", [65_536, 2_000, 100, 10], ids=["one_tile", "x_rows", "y_columns", "one_pair"]
)
@pytest.mark.parametrize("f", [EXP_X2, ONE, POWER], ids=["exp_x2", "one", "power"])
@pytest.mark.parametrize(
    "box",
    [
        # a refinement box whose lam grid touches both 0 and 1
        ((0.1, 0.6), (0.35, 0.9), (0.0, 1.0)),
        # lam clipped at one end only; x and y boxes overlap with
        # incommensurate spacings, so near-coincident pairs are skipped
        ((0.0, 0.5), (0.2, 0.45), (0.0, 0.3)),
        ((0.3, 0.7), (0.3, 0.7), (0.6, 1.0)),
    ],
    ids=["lam_0_and_1", "lam_0", "lam_1"],
)
def test_lam_clipped_walk_matches_the_full_grid_bit_for_bit(monkeypatch, f, chunk, box):
    # the walk drops lam = 0 and 1 once per grid instead of masking them in
    # every chunk; every admissible ratio, the minimum and its witness must be
    # those of the full-grid reference, whose dropped columns are all +inf.
    # Chunks of 2,000 triples hold several x-rows and end mid-row, chunks of
    # 100 are shorter than one x-row, and a chunk of 10 triples, fewer than
    # one pair has, is one pair
    (x0, x1), (y0, y1), (l0, l1) = box
    xs, ys, lams = np.linspace(x0, x1, 17), np.linspace(y0, y1, 16), np.linspace(l0, l1, 16)
    reference = _defect_grid(f, xs, ys, lams)
    result, stitched, inner = _chunked_defects(monkeypatch, f, xs, ys, lams, chunk)
    assert not inner.all()
    assert np.all(reference[:, :, ~inner] == np.inf)
    assert np.array_equal(_bits(stitched), _bits(reference[:, :, inner]))
    assert np.isinf(stitched).any()  # some pairs are skipped in every box
    assert result == _grid_min(reference, xs, ys, lams)


def _evaluator_calls(monkeypatch, run) -> tuple:
    """What ``run()`` returns, and the size of each evaluator call it makes."""
    import hhcert.expr

    evaluate_array = hhcert.expr.evaluate_array
    calls = []

    def counting(f, xs):
        calls.append(np.size(xs))
        return evaluate_array(f, xs)

    with monkeypatch.context() as m:
        m.setattr(hhcert.expr, "evaluate_array", counting)
        result = run()
    return result, calls


def test_one_evaluator_call_per_grid_and_per_tile(monkeypatch):
    # grid 16 is one chunk per round: f on xs, then f on the chunk's interior
    # points for the first grid; f on xs and ys together, then on the chunk,
    # for each of the three refinement rounds, which an open bracket runs
    _force_open(monkeypatch)
    _, calls = _evaluator_calls(
        monkeypatch, lambda: estimate_modulus(PEAK, 0.0, 1.0, grid_n=16, refine_rounds=3))
    assert len(calls) == 8
    assert calls[0] == 16 and calls[2::2] == [32, 32, 32]  # xs and ys together


def _chunk_sizes(monkeypatch, run) -> tuple:
    """What ``run()`` returns, and the triples of each grid chunk it walks."""
    import hhcert.certify as certify_module

    walk = certify_module._defect_chunks
    sizes = []

    def recording_walk(*args):
        for chunk in walk(*args):
            sizes.append(chunk[-1].size)
            yield chunk

    with monkeypatch.context() as m:
        m.setattr(certify_module, "_defect_chunks", recording_walk)
        result = run()
    return result, sizes


def _open_bracket(f, a, b):
    """``_bracket`` as it returns where the bracket leaves the verdict open."""
    import hhcert.certify as certify_module

    return certify_module._OPEN, np.linspace(a, b, certify_module._BRACKET_PIECES + 1), 0


def _force_open(monkeypatch) -> None:
    """Leave every bracket open, so the grid walks whatever later bracket proofs settle."""
    import hhcert.certify as certify_module

    monkeypatch.setattr(certify_module, "_bracket", _open_bracket)


def _no_grid(monkeypatch, run):
    """What ``run()`` returns, with any grid walk an error."""
    import hhcert.certify as certify_module

    def walked(*args):
        raise AssertionError("a grid was walked")

    with monkeypatch.context() as m:
        m.setattr(certify_module, "_min_over_grid", walked)
        return run()


def _assert_a_not_log_convex_answer(f, cert) -> None:
    """The bracket's not_log_convex answer: c_up, no round and a counterexample witness."""
    assert cert.status is CertStatus.NOT_LOG_CONVEX and cert.refinement_rounds == 0
    assert cert.c_star == cert.c_up < 0.0
    assert log_defect(f, *cert.witness) < 0.0


EXP_AFFINE = parse("exp(0.7*x - 0.3)")


@pytest.mark.parametrize("f", [EXP_X2, EXP_AFFINE, EXP_MINUS_X2],
                         ids=["exp_x2", "exp_affine", "exp_minus_x2"])
def test_a_bracket_settled_modulus_samples_no_grid(monkeypatch, f):
    # c_lo > 0 (exp(x^2)), c_lo = c_up = 0 (exp(0.7*x - 0.3)) or c_up < 0
    # (exp(-x^2)) settles the status, so neither the first grid nor a round
    # is walked, and f is never evaluated on a grid
    cert, chunks = _chunk_sizes(monkeypatch, lambda: estimate_modulus(f, 0.0, 1.0, 64, 3))
    assert chunks == [] and cert.refinement_rounds == 0 and cert.grid_size == 64
    _, calls = _evaluator_calls(monkeypatch, lambda: estimate_modulus(f, 0.0, 1.0, 64, 3))
    assert calls == []
    check, chunks = _chunk_sizes(monkeypatch, lambda: check_modulus(f, 0.0, 1.0, 0.5, grid_n=64))
    assert chunks == [] and check.defect == cert.c_star and check.witness == cert.witness


@pytest.mark.parametrize("rounds", [0, 1, 3])
def test_a_not_log_convex_modulus_walks_every_grid(monkeypatch, rounds):
    # the name is the rule before the bracket answered not_log_convex, when
    # PEAK's grid minimum below c_up decided c_star.  Now the bracket answers
    # at any rounds: c_star is the proved c_up, no grid is walked, and the
    # witness is a triple whose defect ratio is negative
    cert = _no_grid(monkeypatch, lambda: estimate_modulus(PEAK, 0.0, 1.0, 16, rounds))
    _assert_a_not_log_convex_answer(PEAK, cert)
    assert cert.c_up == modulus_bracket(PEAK, 0.0, 1.0).c_up


def _full_search(f: Expression, a: float, b: float, grid_n: int, rounds: int) -> float:
    """c_star of ``estimate_modulus`` with every round searched, written out."""
    xs = np.linspace(a, b, grid_n)
    best, witness = _min_over_grid(f, xs, xs, np.arange(1, grid_n + 1, dtype=float) / (grid_n + 1))
    for k in range(1, rounds + 1):
        (wx, wy, wl), half_x, half_l = witness, (b - a) * 0.5 ** (k + 1), 0.5 ** (k + 1)
        value, candidate = _min_over_grid(
            f,
            np.linspace(max(a, wx - half_x), min(b, wx + half_x), grid_n),
            np.linspace(max(a, wy - half_x), min(b, wy + half_x), grid_n),
            np.linspace(max(0.0, wl - half_l), min(1.0, wl + half_l), grid_n),
        )
        if value < best:
            best, witness = value, candidate
    bracket = modulus_bracket(f, a, b)
    return min(max(best, bracket.c_lo), bracket.c_up)


@pytest.mark.parametrize(
    "text, a, b, grid_n, c_star_hex",
    [
        ("exp(-x^2)", 0.0, 1.0, 16, "-0x1.ffffffffffffdp-1"),
        ("(x + 1.3609631786933962)^0.4725329956401376", -1.2227591683530141,
         0.7128662537103811, 64, (-4.855438961488034).hex()),
        # c_up here is the edge term at the corners, x = b and y = a as lam
        # tends to 1, below the grid's -1.2978 and the full search's -1.3186
        ("(x + 1.7133926873001548)^1.6551890336849475", -1.0667763623136954,
         0.568672314550172, 64, (-1.3201289137455738).hex()),
    ],
    ids=["exp_minus_x2", "power", "power_edge_term"],
)
def test_a_pinned_not_log_convex_modulus_stops_after_the_first_grid(
    monkeypatch, text, a, b, grid_n, c_star_hex
):
    # these once walked one grid, whose minimum the clip pinned at c_up; the
    # bracket now answers before any grid, with the same c_star
    f = parse(text)
    cert = _no_grid(monkeypatch, lambda: estimate_modulus(f, a, b, grid_n, 3))
    _assert_a_not_log_convex_answer(f, cert)
    assert cert.c_star.hex() == c_star_hex


def test_a_stopped_modulus_rises_to_c_up_at_most_slightly():
    # the grid's rounds would cross below c_up here, so answering from the
    # bracket raises c_star from the full search's -0.05137122743964545 to
    # the proved c_up; it is still an upper estimate of c*
    f = parse("(x + 1.3929032499929193)^0.3862430427598439")
    a, b = 0.879249479141385, 0.9938766857876788
    cert = estimate_modulus(f, a, b, 64, 3)
    full = _full_search(f, a, b, 64, 3)
    assert full == -0.05137122743964545
    assert cert.refinement_rounds == 0 and cert.c_star == cert.c_up == -0.05136025198230381
    assert 0.0 < (cert.c_star - full) / -full < 3e-4


def test_the_stop_matches_the_full_search_of_seeded_powers():
    # (x + s)^p with p in [0.25, 2] is log-concave, so the bracket settles
    # not_log_convex and answers with no round: c_star is the proved c_up, at
    # or above the full search's; the draw meets equal bits and a rise
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(24):
        a, b = sorted(float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        if b - a < 0.1:
            continue
        s, p = float(rng.uniform(0.1 - a, 3.0)), float(rng.uniform(0.25, 2.0))
        f = parse(f"(x + {s!r})^{p!r}")
        cert = estimate_modulus(f, a, b, 16, 3)
        full = _full_search(f, a, b, 16, 3)
        assert cert.status is CertStatus.NOT_LOG_CONVEX and full < 0.0
        assert cert.refinement_rounds == 0 and cert.c_star == cert.c_up >= full
        outcomes.add("pinned" if cert.c_star == full else "raised")
    assert outcomes == {"pinned", "raised"}


def test_a_power_whose_grid_passes_c_up_searches_every_round(monkeypatch):
    # the minimizing pair sits near a, closer together than two of the
    # bracket's edges, so the grid finds ratios below c_up; these once
    # decided c_star after every round.  The bracket settles the status, so
    # it now answers with the proved c_up and walks no grid; the grid's
    # lower value stays an upper estimate of c*, as c_up is
    f = parse("(x + 1.9116510068209058)^1.3628632569188897")
    a, b = -1.677969199914883, 0.7978694677427951
    cert = _no_grid(monkeypatch, lambda: estimate_modulus(f, a, b, 64, 3))
    _assert_a_not_log_convex_answer(f, cert)
    assert _full_search(f, a, b, 64, 3) < cert.c_star


def _benchmark_powers(seed: int) -> list:
    """(text, a, b) of the log-concave (x + s)^p the benchmark's modulus cycle draws for seed.

    The draws of ``bench/workloads.py`` in the same order: 8 exp_quadratic,
    8 log_affine, 4 (x + s)^-p and 4 (x + s)^p, with p = 0.25 + 1.75 u over
    stratified u; only the last class is kept.
    """
    rng = np.random.default_rng([seed, 2])
    powers = []
    for klass, count in (("exp_quadratic", 8), ("log_affine", 8), ("power_neg", 4),
                         ("power_pos", 4)):
        for u in rng.permutation((np.arange(count) + rng.random(count)) / count):
            a, b = 0.0, 0.0
            while b - a < 0.1:
                a, b = sorted(float(v) for v in rng.uniform(-2.0, 2.0, size=2))
            if klass == "exp_quadratic":
                rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
            elif klass == "log_affine":
                rng.uniform(-1.0, 1.0)
            else:
                s = float(rng.uniform(0.1 - a, 3.0))
                if klass == "power_pos":
                    powers.append((f"(x + {s!r})^{0.25 + 1.75 * float(u)!r}", a, b))
    return powers


def test_a_not_log_convex_witness_is_a_counterexample_on_the_benchmark_draws(monkeypatch):
    # every log-concave power of the modulus cycle at seeds 100-109: the
    # bracket answers with no grid, and the defect ratio at its witness is
    # negative, so the witness itself shows that f is not log-convex
    draws = [draw for seed in range(100, 110) for draw in _benchmark_powers(seed)]
    assert len(draws) == 40
    for text, a, b in draws:
        f = parse(text)
        _assert_a_not_log_convex_answer(f, _no_grid(monkeypatch, lambda: estimate_modulus(f, a, b)))


@pytest.mark.parametrize(
    "b, grid_n", [(1e-160, 64), (1.0, 2000)], ids=["underflowing_denominator", "past_the_budget"]
)
def test_a_not_log_convex_bracket_answers_where_the_grid_would_refuse(monkeypatch, b, grid_n):
    # the grid's denominator underflows on [0, 1e-160], and 4 grids of 2000^3
    # triples are past the budget; the bracket needs neither
    cert = _no_grid(monkeypatch, lambda: estimate_modulus(EXP_MINUS_X2, 0.0, b, grid_n))
    assert cert.status is CertStatus.NOT_LOG_CONVEX and cert.refinement_rounds == 0
    assert cert.c_star == cert.c_up < 0.0 and cert.grid_size == grid_n
    x, y, lam = cert.witness
    assert 0.0 <= x <= b and 0.0 <= y <= b and x != y and lam == 0.5


@pytest.mark.parametrize(
    "f, a, b",
    [(EXP_X2, 0.0, 1.0), (EXP_AFFINE, 0.0, 1.0), (ONE, 0.0, 1.0), (EXP_X2, -1.0, 0.5),
     (parse("(x+0.5)^-1.5"), 0.0, 1.0), (EXP_X2, 1.0, 1.0000000000000004)],
    ids=["exp_x2", "exp_affine", "one", "exp_x2_vertex_inside", "power", "two_ulps"],
)
def test_a_bracket_settled_witness_bounds_c_star(f, a, b):
    # the witness is the edge where the local term's upper enclosure is
    # least, the nearest other edge and lam = 1/2; c* is the infimum of the
    # defect ratio, so its ratio is at least the proved c_star.  On
    # [1, 1 + 2 ulps] the 17 edges take three values, so the nearest other
    # edge is not always the next one
    cert = estimate_modulus(f, a, b)
    x, y, lam = cert.witness
    assert a <= x <= b and a <= y <= b and x != y and lam == 0.5
    defect = log_defect(f, x, y, lam)
    if cert.status is CertStatus.CERTIFIED_POSITIVE:
        assert defect >= cert.c_star * (1.0 - 1e-12)
    else:
        assert cert.status is CertStatus.CERTIFIED_ZERO and abs(defect) <= 1e-12


@pytest.mark.parametrize(
    "text, a, b, c_star_hex, status",
    [
        ("1", 0.0, 1e-160, "0x0.0p+0", CertStatus.CERTIFIED_ZERO),
        ("exp(x^2)", 0.0, 1e-160, "0x1.ffffffffffffdp-1", CertStatus.CERTIFIED_POSITIVE),
        # a proved lower bound: c* is about 1e320
        ("1e300*exp(1e20*x^2)", 0.0, 1e-10, "0x1.ffffffffffffep+1022",
         CertStatus.CERTIFIED_POSITIVE),
    ],
    ids=["one_narrow", "exp_x2_narrow", "overflowing"],
)
def test_the_bracket_certifies_where_the_grid_would_refuse(text, a, b, c_star_hex, status):
    # the grid's denominator underflows on [0, 1e-160] and its every ratio
    # overflows on the third input; the bracket needs neither
    cert = estimate_modulus(parse(text), a, b)
    assert (cert.c_star.hex(), cert.status) == (c_star_hex, status)
    assert cert.c_lo == cert.c_star and cert.refinement_rounds == 0
    x, y, lam = cert.witness
    assert a <= x < y <= b and lam == 0.5


def test_an_open_bracket_searches_every_round(monkeypatch):
    # exp(x^2) with its bracket forced open: the grid decides c_star again
    _force_open(monkeypatch)
    cert = estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=16, refine_rounds=3)
    monkeypatch.undo()
    assert cert.refinement_rounds == 3
    assert cert.status is CertStatus.CERTIFIED_POSITIVE
    # the refined grid minimum overshoots the proved modulus 1 from above
    assert cert.c_star > estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=16, refine_rounds=3).c_star


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: abs across 0 leaves the bracket open, so the grid's upper "
    "estimate of c* = 1 is reported as certified_positive",
)
def test_an_open_bracket_certifies_no_modulus_above_c_star():
    # exp(|x| + x^2) on [-1, 1]: g'' >= 2 off the kink, g' jumps up at 0 and
    # min f = f(0) = 1, so c* >= 1, and f*g''/2 -> 1 as t -> 0+, so c* = 1.
    # The bracket is (-inf, inf), and the grid walk reports 1.00199; the
    # package's own defect ratio near the kink is below that
    f = parse("exp(abs(x) + x^2)")
    cert = estimate_modulus(f, -1.0, 1.0, grid_n=64, refine_rounds=3)
    assert (cert.status is not CertStatus.CERTIFIED_POSITIVE
            or cert.c_star <= log_defect(f, 1e-4, 2e-4, 0.5))


def test_a_near_zero_open_bracket_certifies_zero():
    # exp(x^4) on [-1, 1]: g'' = 12 x^2 vanishes at 0, and the bracket
    # (-1.24e-322, 5e-323) straddles 0, so it is open and the grid walks
    # every round; the clip keeps c_star inside the bracket, where only a
    # sampled ratio's sign chooses between certified_zero and not_log_convex
    f = parse("exp(x^4)")
    bracket = modulus_bracket(f, -1.0, 1.0)
    assert bracket.status is None and bracket.c_lo < 0.0 < bracket.c_up
    cert = estimate_modulus(f, -1.0, 1.0, grid_n=16, refine_rounds=3)
    assert cert.status is CertStatus.CERTIFIED_ZERO and cert.refinement_rounds == 3
    assert abs(cert.c_star) <= ZERO_TOLERANCE
    assert (cert.c_lo, cert.c_up) == (bracket.c_lo, bracket.c_up)


@pytest.mark.parametrize(
    "text, c_star_hex, status",
    [
        ("exp(x^2)", "0x1.ffffffffffffdp-1", CertStatus.CERTIFIED_POSITIVE),
        ("(x+0.5)^-1.5", "0x1.7398bf1d1ee66p-3", CertStatus.CERTIFIED_POSITIVE),
        ("exp(0.7*x - 0.3)", "0x0.0p+0", CertStatus.CERTIFIED_ZERO),
        ("exp(-x^2)", "-0x1.ffffffffffffdp-1", CertStatus.NOT_LOG_CONVEX),
    ],
)
def test_c_star_and_status_are_pinned_bit_for_bit(text, c_star_hex, status):
    # the bits a search of all three rounds gives: answering from the
    # bracket, where c_star is its c_lo or (for exp(-x^2)) its c_up, must
    # move neither
    cert = estimate_modulus(parse(text), 0.0, 1.0, grid_n=16, refine_rounds=3)
    assert cert.c_star.hex() == c_star_hex
    assert cert.status is status


def test_the_triple_budget_is_checked_before_sampling(monkeypatch):
    # grid_n^3 triples per grid, refine_rounds + 1 grids: 128^3 * 128 is
    # exactly 2**28 and allowed; one more round, or one more grid point for
    # check_modulus's single grid (646^3 > 2**28 >= 645^3), is refused.  A
    # grid counts as at least 2**13 triples, its fixed cost: a million
    # rounds of grid 3 are refused, grid 16 and the default grid 64 with 3
    # rounds are not.  Under an open bracket the first grid runs and the
    # budget is charged for every round it may search; the bracket before
    # them evaluates no f
    import hhcert.expr

    _force_open(monkeypatch)

    class Sampled(Exception):
        pass

    def sampled(f, xs):
        raise Sampled

    monkeypatch.setattr(hhcert.expr, "evaluate_array", sampled)
    with pytest.raises(Sampled):
        estimate_modulus(EXP_MINUS_X2, 0.0, 1.0, grid_n=128, refine_rounds=127)
    with pytest.raises(Sampled):
        check_modulus(EXP_MINUS_X2, 0.0, 1.0, 0.5, grid_n=645)
    for grid_n in (16, 64):
        with pytest.raises(Sampled):
            estimate_modulus(EXP_MINUS_X2, 0.0, 1.0, grid_n=grid_n, refine_rounds=3)
    for run, triples in [
        (lambda: estimate_modulus(EXP_MINUS_X2, 0.0, 1.0, grid_n=128, refine_rounds=128),
         128**3 * 129),
        (lambda: check_modulus(EXP_MINUS_X2, 0.0, 1.0, 0.5, grid_n=646), 646**3),
        (lambda: estimate_modulus(EXP_MINUS_X2, 0.0, 1.0, grid_n=2000), 2000**3 * 4),
        (lambda: estimate_modulus(EXP_MINUS_X2, 0.0, 1.0, grid_n=3, refine_rounds=10**6),
         2**13 * (10**6 + 1)),
    ]:
        with pytest.raises(ValueError, match="budget") as err:
            run()
        assert f"{triples} triples" in str(err.value) and f"{2**28}" in str(err.value)


@pytest.mark.parametrize(
    "f, c_star_hex",
    [(EXP_X2, "0x1.ffffffffffffdp-1"), (EXP_AFFINE, "0x0.0p+0")],
    ids=["exp_x2", "exp_affine"],
)
def test_the_budget_spares_a_bracket_settled_modulus(monkeypatch, f, c_star_hex):
    # the budget bounds the grids that run, and a bracket-settled call runs
    # none: grids the budget would refuse give the default grid's c_star
    default = estimate_modulus(f, 0.0, 1.0)
    assert default.c_star.hex() == c_star_hex
    for run in [
        lambda: estimate_modulus(f, 0.0, 1.0, grid_n=2000),
        lambda: estimate_modulus(f, 0.0, 1.0, grid_n=3, refine_rounds=10**6),
    ]:
        cert, chunks = _chunk_sizes(monkeypatch, run)
        assert chunks == [] and cert.refinement_rounds == 0
        assert (cert.c_star.hex(), cert.status) == (c_star_hex, default.status)
    check, chunks = _chunk_sizes(monkeypatch, lambda: check_modulus(f, 0.0, 1.0, 0.5, grid_n=646))
    assert chunks == [] and check.defect.hex() == c_star_hex


def test_tiles_stay_small_at_any_grid_size(monkeypatch):
    # one x-row of a 300-point grid holds 90,000 triples, more than a chunk,
    # so chunks end in the middle of x-rows and memory stays flat
    import hhcert.certify as certify_module

    _force_open(monkeypatch)
    n = 300
    _, sizes = _chunk_sizes(monkeypatch, lambda: check_modulus(EXP_MINUS_X2, 0.0, 1.0, 0.5, grid_n=n))
    assert sum(sizes) == n**3
    assert max(sizes) <= max(certify_module._TILE_TRIPLES, n)


# Forced-open certificates at grids 16 and 64 with 3 rounds, as (status,
# c_star, witness), and check_modulus at grid 300 as (ok, defect, witness),
# in float.hex.  At grid 300 a chunk of the walk ends in the middle of an
# x-row.  Forcing the bracket open keeps later bracket proofs (items 3, 9
# and 12) from moving these bits
_OPEN_PINS = [
    ("exp(x^2)", 0.0, 1.0, [
        ("certified_positive", "0x1.000000f522325p+0",
         ("0x1.3b9fe6983d5e9p-8", "0x0.0p+0", "0x1.3b78e98d646ebp-8")),
        ("certified_positive", "0x1.fffffe5c7db11p-1",
         ("0x0.0p+0", "0x1.0c99246538d91p-10", "0x1.ff79b37e94990p-1")),
        (True, "0x1.000000580a14ep+0",
         ("0x0.0p+0", "0x1.b65e2e3beee05p-9", "0x1.fe4c8b7b527f9p-1")),
    ]),
    ("exp(-(x - 0.4)^2)", 0.0, 1.0, [
        ("not_log_convex", "-0x1.fffe91c1902abp-1",
         ("0x1.9555555555556p-2", "0x1.9dddddddddddep-2", "0x1.81e1e1e1e1e1ep-1")),
        ("not_log_convex", "-0x1.ffffff71a9fd4p-1",
         ("0x1.9965965965965p-2", "0x1.9b6db6db6db6cp-2", "0x1.ff75344713ae3p-1")),
        (False, "-0x1.ffffd4d67ec58p-1",
         ("0x1.978b8efbb8149p-2", "0x1.9af84b582ff25p-2", "0x1.322ded49fe4c9p-2")),
    ]),
    ("exp(-abs(x))", -1.0, 1.0, [
        ("not_log_convex", "-0x1.ddc536a6d348ep+6",
         ("-0x1.1111111111110p-7", "0x1.1111111111110p-7", "0x1.ffbfbfbfbfbfcp-2")),
        ("not_log_convex", "-0x1.f6bf636263295p+8",
         ("-0x1.0410410410500p-9", "0x1.0410410410320p-9", "0x1.ff3bf3bf3bf3cp-2")),
        (False, "-0x1.2982af8539237p+8",
         ("-0x1.b65e2e3beee00p-9", "0x1.b65e2e3beee00p-9", "0x1.fe4c8b7b527f9p-2")),
    ]),
    ("x^-2+1", 0.5, 2.0, [
        ("certified_positive", "0x1.4e285a9be673cp-3",
         ("0x1.fe2690261ba3fp+0", "0x1.0000000000000p+1", "0x1.3b78e98d646ebp-8")),
        ("certified_positive", "0x1.4d162bc1d90d1p-3",
         ("0x1.0000000000000p+1", "0x1.ff9b46925a0abp+0", "0x1.ff79b37e94990p-1")),
        (False, "0x1.4dbd66958a487p-3",
         ("0x1.feb7395d530cep+0", "0x1.0000000000000p+1", "0x1.b37484ad806cep-9")),
    ]),
    ("ln(exp(x))/x", 0.1, 1.0, [
        ("not_log_convex", "-0x1.17693532bdf30p-25",
         ("0x1.4c8490946712dp-3", "0x1.476f2a5a469d7p-3", "0x1.477740a3a0366p-8")),
        ("not_log_convex", "-0x1.ce0297bf6a35ep-22",
         ("0x1.5931931931930p-3", "0x1.55f15f15f15f2p-3", "0x1.ff79b37e94990p-1")),
        (False, "-0x1.5c4cc58ee172ap-25",
         ("0x1.e39317cd504f8p-4", "0x1.d73ed81a07313p-4", "0x1.b37484ad806cep-9")),
    ]),
]


@pytest.mark.parametrize(
    "text, a, b, pins", _OPEN_PINS,
    ids=["exp_x2", "peak", "exp_minus_abs", "inverse_square", "ln_exp_over_x"],
)
def test_forced_open_certificates_are_pinned_bit_for_bit(monkeypatch, text, a, b, pins):
    # the grid walk decides each of these; no rewrite of the walk may move a bit
    f = parse(text)
    _force_open(monkeypatch)
    for grid_n, (status, c_star_hex, witness_hex) in zip((16, 64), pins):
        cert = estimate_modulus(f, a, b, grid_n, 3)
        assert (cert.status.value, cert.c_star.hex()) == (status, c_star_hex)
        assert tuple(v.hex() for v in cert.witness) == witness_hex
        assert cert.refinement_rounds == 3 and cert.grid_size == grid_n
    ok, defect_hex, witness_hex = pins[2]
    check = check_modulus(f, a, b, 0.5, grid_n=300)
    assert (check.ok, check.defect.hex()) == (ok, defect_hex)
    assert tuple(v.hex() for v in check.witness) == witness_hex


def test_equal_minima_pick_the_lexicographically_first_witness(monkeypatch):
    # every defect of a constant is exactly zero, so the reported witness is
    # the first valid triple in (x, y, lam) order; a constant's bracket
    # settles certified_zero without a grid, so it is forced open here
    _force_open(monkeypatch)
    cert = estimate_modulus(ONE, 0.0, 1.0, grid_n=5, refine_rounds=2)
    assert cert.witness == (0.0, 0.25, 1.0 / 6.0)


def test_refinement_never_raises_c_star(monkeypatch):
    # under an open bracket the grid decides c_star, and the rounds lower
    # exp(-(x - 0.4)^2)'s toward c* = -1
    _force_open(monkeypatch)
    values = []
    for rounds in range(5):
        cert = estimate_modulus(PEAK, 0.0, 1.0, grid_n=32, refine_rounds=rounds)
        assert cert.refinement_rounds == rounds
        values.append(cert.c_star)
    assert all(later <= earlier + 1e-15 for earlier, later in zip(values, values[1:]))
    assert values[-1] < values[0]


def test_witness_satisfies_bounds(monkeypatch):
    _force_open(monkeypatch)
    cert = estimate_modulus(PEAK, 0.25, 1.75, grid_n=24, refine_rounds=2)
    x, y, lam = cert.witness
    assert 0.25 <= x <= 1.75 and 0.25 <= y <= 1.75
    assert x != y
    assert 0.0 < lam < 1.0
    assert cert.grid_size == 24 and cert.refinement_rounds == 2


def test_log_concave_flagged_not_log_convex():
    cert = estimate_modulus(parse("exp(-x^2)"), 0.0, 1.0, grid_n=16, refine_rounds=1)
    assert cert.status is CertStatus.NOT_LOG_CONVEX
    assert cert.c_star < 0.0
    assert cert.kind is None


def test_certificate_matches_closed_form_modulus_of_exp_quadratic():
    """Independent oracle for a whole family.

    For f = exp(alpha x^2 + beta x + gamma) the exponent is exactly
    quadratic, so the defect ratio factors as
    alpha * exp(g(t)) * (e^D - 1)/D with D = alpha*lam*(1-lam)*(x-y)^2 > 0,
    and the infimum over admissible triples is alpha * min f, approached in
    the x -> y limit at the minimizer of f.  The bracket proves a lower
    bound within rounding of that closed form, and the certificate reports
    it: never above the closed form (up to the rounding of c_true itself),
    where the grid minimum alone sat up to 1e-3 above it.
    """
    import math

    rng = np.random.default_rng(77)
    checked = 0
    while checked < 20:
        alpha = float(rng.uniform(0.05, 3.0))
        beta = float(rng.uniform(-2.0, 2.0))
        gamma = float(rng.uniform(-1.0, 1.0))
        a, b = sorted(rng.uniform(-2.0, 2.0, size=2))
        if b - a < 0.15:
            continue
        checked += 1
        f = parse(f"exp({alpha!r}*x^2 + {beta!r}*x + {gamma!r})")
        vertex = -beta / (2.0 * alpha)
        candidates = [a, b] + ([vertex] if a < vertex < b else [])
        f_min = min(math.exp(alpha * x * x + beta * x + gamma) for x in candidates)
        c_true = alpha * f_min
        cert = estimate_modulus(f, a, b, grid_n=32, refine_rounds=3)
        ratio = cert.c_star / c_true
        assert -1e-12 <= ratio - 1.0 <= 1e-14


def test_scaling_law_on_fixed_grids():
    base = estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=16, refine_rounds=0)
    for t in (0.5, 2.0, 10.0):
        scaled = estimate_modulus(
            parse(f"{t!r}*exp(x^2)"), 0.0, 1.0, grid_n=16, refine_rounds=0
        )
        assert scaled.c_star == pytest.approx(t * base.c_star, rel=1e-10)


def test_non_positive_function_raises_not_applicable():
    with pytest.raises(NotPositiveError):
        estimate_modulus(parse("x"), -1.0, 1.0, grid_n=8, refine_rounds=0)


@pytest.mark.parametrize(
    "text, error, x, value",
    [
        ("x", NotPositiveError, -0.25, -0.25),
        ("x - 0.5", NotPositiveError, 0.5, 0.0),
        ("ln(x)", DomainError, None, None),
        ("exp(1000*x)", EvaluationError, None, None),
    ],
)
def test_positivity_check_names_the_first_offender(text, error, x, value):
    pts = np.array([[0.5, 2.0], [-0.25, -1.0]])
    with pytest.raises(error) as err:
        _positive_values(parse(text), pts)
    if error is NotPositiveError:
        assert (err.value.x, err.value.value) == (x, value)
    assert _positive_values(parse("x + 2"), pts).shape == pts.shape


@pytest.mark.parametrize(
    "text, a, b, grid_n",
    [("0.9 - x", 0.0, 1.0, 8), ("x^2 - 0.01", -1.0, 1.0, 4)],
    ids=["on_the_grid", "between_grid_points"],
)
def test_the_log_pass_names_the_first_non_positive_point(text, a, b, grid_n):
    # positivity is read off the finiteness of the ln f sums; a failure must
    # still name the first offender, on xs first and then on the interior
    # points in (x, y, lam) order: f = 0.9 - x fails at x = 1 on the grid
    # (and at interior points too), x^2 - 0.01 only between grid points
    f = parse(text)
    xs = np.linspace(a, b, grid_n)
    lams = np.arange(1, grid_n + 1) / (grid_n + 1)
    interior = lams * xs[:, None, None] + (1.0 - lams) * xs[None, :, None]
    pts = np.concatenate((xs, interior.ravel()))
    values = f.eval_array(pts)
    first = int(np.argmax(values <= 0.0))
    with pytest.raises(NotPositiveError) as err:
        estimate_modulus(f, a, b, grid_n=grid_n, refine_rounds=0)
    assert (err.value.x, err.value.value) == (float(pts[first]), float(values[first]))


def test_the_log_pass_names_a_non_positive_point_of_ys():
    # a refinement box's ys may leave the domain of positivity where its xs
    # do not: the offender is then named on ys
    lams = np.array([0.25, 0.5, 0.75])
    with pytest.raises(NotPositiveError) as err:
        _min_over_grid(parse("x"), np.array([0.5, 0.6, 0.7]), np.array([-0.1, 0.2, 0.3]), lams)
    assert (err.value.x, err.value.value) == (-0.1, -0.1)


def test_domain_error_propagates():
    with pytest.raises(DomainError):
        estimate_modulus(parse("ln(x)"), -0.5, 1.0, grid_n=8, refine_rounds=0)


@pytest.mark.parametrize("grid_n", [16, 64, 200])
def test_underflowing_denominator_is_a_named_error(monkeypatch, grid_n):
    # on [0, 1e-160] lam*(1-lam)*(x-y)^2 underflows to 0, so the ratios would
    # be 0/0; where the grid decides c_star (under an open bracket), both
    # entry points refuse and name the interval and the grid rather than
    # report a nan modulus
    _force_open(monkeypatch)
    for run in (
        lambda: estimate_modulus(EXP_MINUS_X2, 0.0, 1e-160, grid_n=grid_n),
        lambda: check_modulus(EXP_MINUS_X2, 0.0, 1e-160, 0.5, grid_n=grid_n),
    ):
        with pytest.raises(ValueError, match="too narrow") as err:
            run()
        assert f"{grid_n}x{grid_n}x{grid_n} grid over x in [0.0, 1e-160]" in str(err.value)


def test_determinism():
    a = estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=20, refine_rounds=2)
    b = estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=20, refine_rounds=2)
    assert a == b


def test_parameter_validation():
    with pytest.raises(ValueError):
        estimate_modulus(EXP_X2, 1.0, 0.0)
    with pytest.raises(ValueError):
        estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=2)
    with pytest.raises(ValueError):
        estimate_modulus(EXP_X2, 0.0, 1.0, refine_rounds=-1)


# --------------------------------------------------------------------------
# check_modulus
# --------------------------------------------------------------------------

def test_check_at_half_the_certified_modulus():
    cert = estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=32, refine_rounds=2)
    result = check_modulus(EXP_X2, 0.0, 1.0, cert.c_star / 2.0, grid_n=32)
    assert result.ok


def test_check_constant_violates_any_positive_modulus():
    result = check_modulus(ONE, 0.0, 1.0, 0.1, grid_n=16)
    assert not result.ok
    assert result.defect == 0.0


def test_check_log_affine_violates_tiny_modulus():
    result = check_modulus(EXP_X, 0.0, 1.0, 1e-6, grid_n=16)
    assert not result.ok
    assert abs(result.defect) <= 1e-9


def test_check_monotone_in_c():
    # ok at c implies ok at every smaller positive c on the same grid
    cert = estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=24, refine_rounds=1)
    c_ok = cert.c_star / 2.0
    assert check_modulus(EXP_X2, 0.0, 1.0, c_ok, grid_n=24).ok
    for factor in (0.5, 0.1, 0.01):
        assert check_modulus(EXP_X2, 0.0, 1.0, c_ok * factor, grid_n=24).ok


@pytest.mark.parametrize(
    "a, b, message", [(0.0, math.inf, "need a < b"), (-1e308, 1e308, "need a finite width")]
)
def test_an_infinite_or_overflowing_interval_is_refused_before_sampling(a, b, message):
    from hhcert.chains import dragomir_mond_chain
    from hhcert.quadrature import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (estimate_modulus, lambda f, a, b: check_modulus(f, a, b, 0.5),
                      dragomir_mond_chain, lambda f, a, b: integrate(f.eval_array, a, b)):
            with pytest.raises(ValueError, match=message):
                check(EXP_X, a, b)


def test_an_infinite_c_star_is_refused_by_name(monkeypatch):
    # every sampled ratio overflows; the certificate once read inf,
    # "certified_positive".  The grid decides c_star only under an open
    # bracket, where the log-concave mirror image's ratios overflow to -inf
    _force_open(monkeypatch)
    with pytest.raises(ValueError, match="the sampled modulus c_star is -inf"):
        estimate_modulus(parse("1e300*exp(-1e20*x^2)"), 0.0, 1e-10, 16)


def test_check_requires_positive_modulus():
    with pytest.raises(ValueError):
        check_modulus(EXP_X2, 0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "text, c, c_star",
    [("exp(x)", 1e-13, 0.0), ("exp(1e-13*x^2)", 5e-13, 9.999999999999997e-14)],
    ids=["certified_zero", "tiny_positive"],
)
def test_check_passes_no_modulus_above_the_proof(text, c, c_star):
    # an absolute slack of 1e-12 once passed any c within 1e-12 above the
    # proved c_star, which is most of a modulus this small
    result = check_modulus(parse(text), 0.0, 1.0, c)
    assert result.defect == c_star
    assert not result.ok


@pytest.mark.parametrize("text", ["exp(x^2)", "exp(1e-13*x^2)"])
def test_check_passes_the_certified_modulus_itself(text):
    f = parse(text)
    c_star = estimate_modulus(f, 0.0, 1.0, refine_rounds=0).c_star
    assert c_star > 0.0
    assert check_modulus(f, 0.0, 1.0, c_star).ok
    assert not check_modulus(f, 0.0, 1.0, math.nextafter(c_star, math.inf)).ok


@pytest.mark.parametrize("forced_open", [False, True], ids=["settled", "open"])
@pytest.mark.parametrize(
    "name, value",
    [("grid_n", 16.5), ("refine_rounds", 1.5), ("grid_n", "16")],
    ids=["grid_float", "rounds_float", "grid_str"],
)
def test_a_non_integer_grid_argument_is_refused_by_name(monkeypatch, forced_open, name, value):
    # a float grid once passed where the bracket settles (grid_size=16.5) and
    # raised a bare TypeError from np.linspace under an open bracket
    if forced_open:
        _force_open(monkeypatch)
    message = rf"^{re.escape(f'{name} must be an integer, got {value!r}')}$"
    with pytest.raises(Refused, match=message):
        estimate_modulus(EXP_X2, 0.0, 1.0, **{name: value})
    if name == "grid_n":
        with pytest.raises(Refused, match=message):
            check_modulus(EXP_X2, 0.0, 1.0, 0.5, grid_n=value)


@pytest.mark.parametrize("forced_open", [False, True], ids=["settled", "open"])
def test_numpy_integer_grid_arguments_pass(monkeypatch, forced_open):
    if forced_open:
        _force_open(monkeypatch)
    cert = estimate_modulus(EXP_X2, 0.0, 1.0, np.int64(16), np.int32(1))
    assert cert == estimate_modulus(EXP_X2, 0.0, 1.0, 16, 1)
    assert type(cert.grid_size) is int
