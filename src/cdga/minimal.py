"""Minimal models of simply connected free CDGAs, one degree at a time.

Starting from the trivial algebra, stage k first adjoins closed generators
hitting a basis of coker(H^k(model) -> H^k(input)), then generators whose
differentials kill ker(H^(k+1)(model) -> H^(k+1)(input)); the comparison
map extends at every step.  After stage k the induced map on cohomology is
an isomorphism through degree k and injective at k+1, so generator counts
in degrees <= n are final once stages 2..n have run.  Each half of a stage
first reads rank H^k(f) from ranks alone (InducedRanks, cached on the
comparison chain map as f.ranks): the cokernel at k is empty when that rank
is b_k(input), the kernel at k+1 when it is b_(k+1)(model).  Only a gap
builds cohomology classes (HomologySpace) and the induced matrix, which fix
the new generators and their images.  The input's complex is built once per
call, each of its cohomology spaces at most once, and the comparison chain
map only when a stage has extended the model.  The finished map is
certified as a weak equivalence on the window where the truncated complexes
are trustworthy, and a failed certificate raises on both paths.  An input
that is already minimal is its own model through the identity, whose
mapping cone has an explicit contraction, so its certificate needs no
complex and no elimination.  Otherwise, when the last stage adjoins no
closing generators, the comparison its ranks were read from is the final
one, and the certificate runs on it: its validated chain map and the ranks
the stages read are shared, so the rank route computes only the degrees no
stage read, and the mapping cone's Betti numbers stay the independent
second route.  A map with no surviving comparison (the last stage closed a
kernel, or a morphism swapped in by hand) gets its complexes, chain map,
ranks and cone built afresh.

The rank of the degree-k generator space of a minimal model is the rank of
the k-th rational homotopy group of the geometric realization, which is
what `MinimalModel.homotopy_ranks` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graded import GradedError
from .linalg import Mat
from .complexes import (
    ChainMap,
    Complex,
    HomologySpace,
    InternalCheckError,
    WeakEquivalenceReport,
    betti_numbers,
    induced_on_homology,
    is_weak_equivalence,
)
from .poly import Generators, Polynomial
from .algebra import FreeCDGA, CDGAMorphism


@dataclass
class StageRecord:
    degree: int
    closed_generators: list
    closing_generators: list


@dataclass
class MinimalModel:
    model: FreeCDGA
    morphism: CDGAMorphism
    input_algebra: FreeCDGA
    truncation: int
    certified_through: int
    stages: list
    already_minimal: bool = False
    certificate: object = field(default=None, repr=False)
    # (morphism, truncation, its chain map on [0, truncation + 2]) from the
    # construction's last comparison, for certify; replace() drops it
    _comparison: tuple = field(default=None, init=False, repr=False, compare=False)

    def homotopy_ranks(self):
        """rank of pi_k for 2 <= k <= certified_through (zeros included)."""
        counts = {k: 0 for k in range(2, self.certified_through + 1)}
        for d in self.model.gens.degrees:
            if 2 <= d <= self.certified_through:
                counts[d] += 1
        return counts


def _comparison_chain_map(model: FreeCDGA, rho: CDGAMorphism, target: Complex,
                          hi: int) -> ChainMap:
    cm = model.to_complex((0, hi))
    comps = {k: rho.matrix(k) for k in range(0, hi + 1)}
    return ChainMap(cm, target, comps)


def minimal_model(a: FreeCDGA, truncation: int = None) -> MinimalModel:
    """Minimal Sullivan model of a simply connected free CDGA.

    Stages run for 2 <= k <= n where n is the truncation; homotopy ranks
    are certified through n - 1 by the final weak-equivalence check.  The
    input's complex on [0, n + 2] is built once per call, and each of its
    cohomology spaces at most once, where a rank shows a gap.  The
    comparison morphism, the model's complex and the chain map between them
    (with their InducedRanks, the model's cohomology spaces and the induced
    maps) are rebuilt only after a stage has adjoined generators.  When the
    last stage adjoins no closing generators, the result keeps the last
    comparison, morphism and chain map, and `certify` runs on that chain map
    and the ranks the stages read; otherwise certify builds the comparison
    of the grown model.
    """
    n = a.truncation if truncation is None else int(truncation)
    if n < 2:
        raise GradedError("truncation must be at least 2")
    margin = n + 2

    # simple connectivity of the input cohomology
    b0, b1 = betti_numbers(a.to_complex((0, 3)), (0, 1)).values()
    if b0 != 1:
        raise GradedError("input is not connected: H^0 has rank %d" % b0)
    if b1 != 0:
        raise GradedError("input is not simply connected: H^1 has rank %d" % b1)

    if a.is_minimal() and a.is_simply_connected():
        mm = MinimalModel(
            model=a,
            morphism=CDGAMorphism.identity(a),
            input_algebra=a,
            truncation=n,
            certified_through=n - 1,
            stages=[],
            already_minimal=True,
        )
        return _certified(mm)

    model = FreeCDGA(Generators([]), {}, truncation=n)
    rho_images = {}
    stages = []
    target = a.to_complex((0, margin))
    ha = {}  # degree -> HomologySpace of the input, built at a gap only, once
    # (rho, chain map, degree -> (model HomologySpace, induced map)); None
    # once the model grows
    comparison = None

    def current():
        """The comparison as it stands, built after each extension of the model."""
        nonlocal comparison
        if comparison is None:
            rho = CDGAMorphism(model, a, dict(rho_images))
            comparison = (rho, _comparison_chain_map(model, rho, target, margin), {})
        return comparison

    def compare(k):
        """f, H^k(model), H^k(input) and the induced map H^k(f), where a rank shows a gap."""
        _, f, hm = current()
        if k not in ha:
            ha[k] = HomologySpace(target, k)
        if k not in hm:
            hs = HomologySpace(f.source, k)
            hm[k] = hs, induced_on_homology(f, k, hs, ha[k])
        hs, induced = hm[k]
        return f, hs, ha[k], induced

    for k in range(2, n + 1):
        # close the cokernel at degree k, empty once rank H^k(f) = b_k(input)
        closed_names = []
        ranks = current()[1].ranks
        if ranks.rank(k) < ranks.target_betti(k):
            _, _, ha_k, induced = compare(k)
            width = induced.n
            probe_mat = induced.hstack(Mat.eye(ha_k.betti))
            missing = [j - width for j in probe_mat.pivots() if j >= width]
            closed_names = ["v%d_%d" % (k, i) for i in range(len(missing))]
            model = model.extended([(name, k) for name in closed_names], {})
            rho_images.update(zip(closed_names, a.from_rows(k, ha_k.reps.select_rows(missing))))
            comparison = None

        # kill the kernel at degree k + 1, empty once rank H^(k+1)(f) = b_(k+1)(model)
        closing_names = []
        ranks = current()[1].ranks
        if ranks.rank(k + 1) < ranks.source_betti(k + 1):
            f, hm_k1, _, induced = compare(k + 1)
            kernel = induced.kernel()
            # row r of z is the cocycle sum_i kernel[r, i] rep_i; each rho(z_r) = d(sol_r)
            z = kernel * hm_k1.reps
            sol = a.d_matrix(k).solve_matrix(f.comp(k + 1) * z.transpose())
            if sol is None:
                raise InternalCheckError(
                    "kernel class at degree %d is not a coboundary downstairs"
                    % (k + 1)
                )
            closing_names = ["v%d_%d" % (k, len(closed_names) + r) for r in range(kernel.m)]
            model = model.extended([(name, k) for name in closing_names],
                                   dict(zip(closing_names, model.from_rows(k + 1, z))))
            rho_images.update(zip(closing_names, a.from_rows(k, sol.transpose())))
            comparison = None
        stages.append(
            StageRecord(
                degree=k,
                closed_generators=closed_names,
                closing_generators=closing_names,
            )
        )

    # the last comparison, unless a stage has extended the model since
    rho = comparison[0] if comparison else CDGAMorphism(model, a, dict(rho_images))
    mm = MinimalModel(
        model=model,
        morphism=rho,
        input_algebra=a,
        truncation=n,
        certified_through=n - 1,
        stages=stages,
        already_minimal=False,
    )
    if comparison:
        mm._comparison = (rho, n, comparison[1])
    if not model.is_minimal():
        raise InternalCheckError("constructed model is not minimal")
    return _certified(mm)


def _certified(mm: MinimalModel) -> MinimalModel:
    mm.certificate = certify(mm)
    if not mm.certificate.is_equivalence:
        raise InternalCheckError(
            "constructed model failed its weak-equivalence certificate"
        )
    return mm


def certify(mm: MinimalModel):
    """Weak-equivalence certificate of the comparison map on [0, n].

    The complexes carry data through truncation + 2, so isomorphism of
    cohomology is checked on [0, n] and vanishing of the cone on [0, n-1];
    that certifies homotopy ranks through n - 1.  When the model is the input
    and mm.morphism's matrices are the identity on [0, n + 1], the cone's
    contraction h_m = [[0, (-1)^(m-1)], [0, 0]] satisfies dh + hd = 1 exactly
    (docs/conventions.md), so the report is returned with nothing built.
    Every other map takes the two-route check, rank H^k(f) against both Betti
    numbers and the acyclic cone, on the comparison chain map on [0, n + 2]
    (checked against d when built).  When mm.morphism is the construction's
    last comparison morphism at this truncation, that chain map is shared,
    with the ranks its stages already read; the stages never build the
    mapping cone, whose Betti numbers share only f's matrices with the ranks.
    Any other morphism gets its complexes, chain map, ranks and cone built
    afresh; the operator matrices (d of both algebras, mm.morphism's) come
    cached on those immutable objects either way.
    """
    n = mm.truncation
    a, rho = mm.input_algebra, mm.morphism
    if (mm.model is a and rho.source is a and rho.target is a
            and all(rho.matrix(k) == Mat.eye(len(a.basis(k))) for k in range(n + 2))):
        return WeakEquivalenceReport(True, (0, n), {k: True for k in range(n + 1)},
                                     {m: 0 for m in range(n)}, True)
    shared = mm._comparison
    if shared and shared[0] is rho and shared[1] == n:
        f = shared[2]
    else:
        f = _comparison_chain_map(mm.model, rho, a.to_complex((0, n + 2)), n + 2)
    return is_weak_equivalence(f, window=(0, n))


def quadratic_part(m: FreeCDGA) -> FreeCDGA:
    """The CDGA with only the length-two component of each differential.

    For a minimal algebra the quadratic component squares to zero on its
    own (it is the lowest length-graded piece of d o d = 0), and it encodes
    the dual of the Whitehead product pairing.
    """
    images = {}
    for name in m.gens.names:
        img = m.differential.image_of(name)
        quad = {
            key: c
            for key, c in img.terms.items()
            if sum(e for _, e in key) == 2
        }
        if quad:
            images[name] = Polynomial(m.gens, quad)
    return FreeCDGA(m.gens, images, truncation=m.truncation)
