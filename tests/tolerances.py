"""The tolerance table: every numerical bound the result-level tests use.

One named constant per kind of comparison, each with the reason it has
the value it has.  Tests edited since PR 21 import from here; older
files still carry their own literals and migrate when they are next
touched.  Where nothing but the order of execution differs (worker
counts, CLA stores, execution substrates) the bar is ``== 0.0`` and
needs no entry.
"""

#: One kernel call, ``compiled`` vs ``reference`` (CLA entries, site
#: terms, one lnL): the generated C mirrors NumPy's summation order but
#: not its pairwise blocking, so results differ by a few ulp of O(1)
#: operands.  Absolute, since CLAs are rescaled to O(1).
KERNEL_PARITY_ATOL = 1e-10

#: One lnL evaluation of a fixed (tree, model, alpha) repeated on another
#: engine: a fresh ``reference`` engine rooted elsewhere, a pool of the
#: other backend.  Relative; the sums differ in order only, sqrt(P) ulps
#: for P patterns (~1e-14 measured at P ~ 300, 3e-14 expected at 1e5).
LNL_RECOMPUTE_RTOL = 1e-12

#: Final lnL of a full ``ml_search``, ``compiled`` vs ``reference``, in
#: lnL units.  Kernel parity is ~1e-14 relative, but the drivers stop on
#: thresholds and L-BFGS-B differentiates lnL by finite differences, so
#: kernel ulps move the model optimiser's iterates a little.  With the
#: step derived in ``model_opt.RATE_FD_STEP`` (1e-5) that stays far from
#: any threshold: measured on the 20 e2e search datasets (both searches,
#: ``rep_seed(1, r)``, r = 0..9): at most 1.38e-6 (``search_wide``, about
#: 3e-11 relative) and 7.4e-8 on ``search_deep``, same topology on all.
#: At the parent commit, on SciPy's default step of 1e-8, the same 20
#: datasets were up to 1.07e-2 apart (an extra model-optimisation round).
SEARCH_LNL_BACKEND_ATOL = 2e-6

#: Placement lnL (and pendant length) of one query on one edge,
#: ``compiled`` vs ``reference``, relative.  No model optimisation in
#: between: a fixed number of Newton steps on kernel-parity operands, so
#: only the kernel-level ulps propagate.
PLACEMENT_LNL_BACKEND_RTOL = 1e-9

#: A Newton-optimised branch length against a solve run to the absolute
#: ``|d1| < 1e-8`` rule this PR replaced, relative to the length.  lnL
#: cannot tell lengths closer than sqrt(2 ulp(lnL) / |d2|) apart (~3e-7
#: of ``t`` on 1000 sites), so either rule may stop anywhere in that
#: band; measured <= 6e-8 over every edge and clamp start of the fixture.
BRANCH_LENGTH_RTOL = 1e-6
