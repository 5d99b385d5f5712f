from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sgsov import DegenerateModelError, compute_grids, make_params, pipeline, solve
from sgsov.acceptance import default_instance
from sgsov.cli import main
from sgsov.observables import form_factor_table


def test_parity_alignment_for_complex_couplings(solution_complex):
    # this instance needs one grid representative negated before the
    # shift-generator determinant identity holds; compute_grids picks it
    # by the product rule and everything downstream stays consistent
    sol = solution_complex
    assert np.any(np.angle(sol.avg.Z) < -1e-9)  # a flip actually happened

    assert sol.right_overlaps.min() > 1 - 1e-8
    assert sol.left_overlaps.min() > 1 - 1e-8
    det_id = form_factor_table(sol.avg, sol.q, "identity")
    dir_id = sol.direct_table("identity")
    const = (np.diag(det_id) / np.diag(dir_id)).mean()
    ratio = form_factor_table(sol.avg, sol.q, "u1") / sol.direct_table("u1")
    assert np.max(np.abs(ratio / const - 1)) < 1e-6


def test_no_flip_for_real_couplings(solution7):
    # real couplings keep every squared zero on the stable branch
    assert np.all(np.angle(solution7.avg.Z) >= -1e-9)


def test_solve_is_deterministic(params7, solution7):
    again = solve(params7, seed=7)
    assert np.array_equal(again.built_right, solution7.built_right)
    assert np.array_equal(again.right_scales, solution7.right_scales)
    assert np.array_equal(again.left_scales, solution7.left_scales)
    assert again.reference_index == solution7.reference_index


def _matched_direct_table(sol, tag):
    """Brute-force matrix elements the way they were first formed: every oracle
    column and row copied, rescaled onto its built state, and stored."""
    matched_right = np.empty_like(sol.built_right)
    matched_left = np.empty_like(sol.built_left)
    for j in range(sol.dim):
        vector, left_vector = sol.oracle.right[:, j].copy(), sol.oracle.left[j, :].copy()
        s, _ = pipeline._match_scalar(vector, sol.built_right[:, j])
        matched_right[:, j] = s * vector
        s, _ = pipeline._match_scalar(left_vector, sol.built_left[j])
        matched_left[j] = s * left_vector
    op = sol.operator(tag)
    return matched_left @ (matched_right if op is None else op @ matched_right)


@pytest.mark.parametrize("name", ["solution_n1", "solution7", "solution_complex",
                                  "solution_n3p5"])
@pytest.mark.parametrize("tag", ["identity", "u1"])
def test_direct_table_equals_matched_copies(request, name, tag):
    # the per-state scales applied on demand give the stored rescaled copies bit for bit
    sol = request.getfixturevalue(name)
    assert np.array_equal(sol.direct_table(tag), _matched_direct_table(sol, tag))


def test_parity_failure_is_degenerate(monkeypatch, capsys):
    # a parity other than +1 is a stated degenerate case (exit code 4),
    # not an internal error
    monkeypatch.setattr(pipeline, "_shift_parity", lambda sol: -1.0)
    with pytest.raises(DegenerateModelError, match="shift-generator parity"):
        solve(default_instance(seed=11, N=1), seed=11)
    assert main(["--n-sites", "1", "--seed", "11", "formfactors"]) == 4


def test_misaligned_grids_fail_the_certificate(monkeypatch, params_complex):
    # hand solve the grids with Z_1 negated back: the parity certificate
    # must reject them
    def misaligned(params):
        avg = compute_grids(params)
        z = avg.Z.copy()
        z[0] = -z[0]
        y0 = np.exp(np.log(z) / params.p)
        grids = y0[:, None] * params.q ** np.arange(params.p)[None, :]
        return replace(avg, Z=z, y0=y0, grids=grids)

    monkeypatch.setattr(pipeline, "compute_grids", misaligned)
    with pytest.raises(DegenerateModelError, match="shift-generator parity"):
        solve(params_complex, seed=1)


@st.composite
def _complex_instances(draw):
    N, p, p_prime = draw(st.sampled_from([(1, 3, 2), (1, 5, 4), (3, 3, 2), (3, 3, 4)]))
    couplings = st.builds(lambda r, phi: r * np.exp(1j * phi),
                          st.floats(0.5, 2.0), st.floats(-1.2, 1.2))
    kappa = draw(st.lists(couplings, min_size=N, max_size=N))
    xi = draw(st.lists(couplings, min_size=N, max_size=N))
    return make_params(N, p, p_prime, kappa, xi)


@settings(max_examples=60, deadline=None)
@given(_complex_instances())
def test_grids_come_aligned(params):
    # the product rule: prod_n Z_n = +prod_r xi_r^p, so one construction
    # pass suffices and the parity certificate reads +1
    try:
        avg = compute_grids(params)
    except DegenerateModelError:
        reject()  # e.g. repeated zeros when couplings coincide
    ratio = np.prod(avg.Z) / np.prod(params.xi ** params.p)
    assert abs(ratio - 1) <= 1e-12

    calls = []
    diagonalize = pipeline.diagonalize_b_family

    def counted(*args, **kwargs):
        calls.append(1)
        return diagonalize(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "diagonalize_b_family", counted)
        try:
            sol = solve(params, seed=1)
        except DegenerateModelError as exc:
            if "parity" in str(exc):
                raise
            reject()  # degenerate for a reason the grids do not decide
    assert len(calls) == 1
    assert abs(pipeline._shift_parity(sol) - 1) <= 1e-6
