"""Known answers: one answer summary per job label.

Recorded from the seed program and checked by hand against the test suite
and the literature: the Fermat cubic cone is F-pure exactly for p = 1 mod 3
and the Fermat quartic cone exactly for p = 1 mod 4; the cusp pair
tau((x^2 + y^3)^(5/6)) is (x, y); the three lines xy(x + y) have F-pure
threshold 2/3.  The splitting-oracle answers equal the colon-criterion
(sharply_fpure) verdicts of the matching certify-batch jobs at e = 1, so
the oracle jobs cross-check the two routes.
"""

EXPECT = {
    'klt-det/certify_klt': {'verdict': 'klt', 'prime': 3, 'e': 3},
    'klt-det/verify_witness_data': {'pass': True},
    'klt-det/certify_klt/e_max=1':
        {'verdict': 'inconclusive', 'prime': None, 'e': None},
    'certify-batch/corpus/lc_cusp_pair_5_6_p7':
        {'verdict': 'log_canonical', 'prime': 7, 'e': 1},
    'certify-batch/corpus/lc_fermat_cubic_divisor_p7':
        {'verdict': 'log_canonical', 'prime': 7, 'e': 1},
    'certify-batch/corpus/lc_cusp_coefficient_one_inconclusive':
        {'verdict': 'inconclusive', 'prime': None, 'e': None},
    'certify-batch/corpus/lc_prime_sweep_lands_on_7':
        {'verdict': 'log_canonical', 'prime': 7, 'e': 1},
    'certify-batch/corpus/klt_quadric_threefold_p5':
        {'verdict': 'klt', 'prime': 5, 'e': 1},
    'certify-batch/corpus/klt_veronese_cone_p3':
        {'verdict': 'klt', 'prime': 3, 'e': 1},
    'certify-batch/corpus/sfr_p1xp1_cone_f3':
        {'verdict': 'strongly_F_regular', 'prime': 3, 'e': 1},
    'certify-batch/corpus/deform_quadric_threefold_slice_p5':
        {'verdict': 'deformation_consistent',
         'prime': 5,
         'e': 1,
         'violation': False},
    'certify-batch/corpus/fpt_cusp_p7': {'p': 7, 'nu': [5, 40]},
    'certify-batch/corpus/tau_cusp_threshold_pair_p7':
        {'p': 7, 'gens': ['y', 'x'], 'stab': 2},
    'certify-batch/corpus/gsfr_quadric_over_function_field':
        {'verdict': 'geometrically_strongly_F_regular', 'prime': 5, 'e': 1},
    'certify-batch/lc/fermat-cubic/p7':
        {'verdict': 'log_canonical', 'prime': 7, 'e': 1},
    'certify-batch/lc/fermat-cubic/p5':
        {'verdict': 'inconclusive', 'prime': None, 'e': None},
    'certify-batch/lc/fermat-cubic/sweep':
        {'verdict': 'log_canonical', 'prime': 7, 'e': 1},
    'certify-batch/lc/fermat-cubic/p13':
        {'verdict': 'log_canonical', 'prime': 13, 'e': 1},
    'certify-batch/lc/fermat-quartic/p5':
        {'verdict': 'log_canonical', 'prime': 5, 'e': 1},
    'certify-batch/lc/fermat-quartic/p13':
        {'verdict': 'log_canonical', 'prime': 13, 'e': 1},
    'certify-batch/lc/fermat-quartic/p3':
        {'verdict': 'inconclusive', 'prime': None, 'e': None},
    'certify-batch/lc/fermat-quartic/p7':
        {'verdict': 'inconclusive', 'prime': None, 'e': None},
    'certify-batch/lc/fermat-cubic/p11':
        {'verdict': 'inconclusive', 'prime': None, 'e': None},
    'certify-batch/lc/fermat-cubic/p5/e3':
        {'verdict': 'inconclusive', 'prime': None, 'e': None},
    'certify-batch/lc/fermat-cubic-divisor/sweep':
        {'verdict': 'log_canonical', 'prime': 7, 'e': 1},
    'certify-batch/lc/fermat-quartic-divisor/p5':
        {'verdict': 'log_canonical', 'prime': 5, 'e': 1},
    'certify-batch/klt/quadric3/sweep': {'verdict': 'klt', 'prime': 3, 'e': 1},
    'certify-batch/klt/quadric4/p3': {'verdict': 'klt', 'prime': 3, 'e': 1},
    'certify-batch/klt/quadric-cone/sweep':
        {'verdict': 'klt', 'prime': 2, 'e': 1},
    'certify-batch/klt/two-quadrics/p3':
        {'verdict': 'klt', 'prime': 3, 'e': 1},
    'certify-batch/klt/two-quadrics/p5':
        {'verdict': 'klt', 'prime': 5, 'e': 1},
    'certify-batch/klt/minors-2x3/p3': {'verdict': 'klt', 'prime': 3, 'e': 1},
    'certify-batch/klt/minors-2x3/p5': {'verdict': 'klt', 'prime': 5, 'e': 1},
    'certify-batch/klt/minors-2x3/sweep':
        {'verdict': 'klt', 'prime': 2, 'e': 1},
    'certify-batch/klt/fermat-cubic/p7/e2':
        {'verdict': 'inconclusive', 'prime': None, 'e': None},
    'certify-batch/klt/fermat-quartic/p5':
        {'verdict': 'inconclusive', 'prime': None, 'e': None},
    'certify-batch/fpt/fermat-cubic/p11': {'p': 11, 'nu': [9, 109]},
    'certify-batch/oracle/fermat-cubic/p7': {'holds': True},
    'certify-batch/oracle/fermat-cubic/p5': {'holds': False},
    'certify-batch/oracle/fermat-quartic/p5': {'holds': True},
    'certify-batch/oracle/fermat-quartic/p3': {'holds': False},
    'certify-batch/oracle/two-quadrics/p3': {'holds': True},
    'certify-batch/oracle/cusp-pair-5/6/p7': {'holds': True},
    'tau-relative/stabilization_scan/div(tx)/F3':
        {'gens': ['t^3*x^2'], 'stabilized': True, 'stab': 1},
    'tau-relative/stabilization_scan/growth/F3':
        {'gens': ['x^2', 't^6*x'], 'stabilized': True, 'stab': 2},
    'tau-relative/stabilization_scan/half-divisor/F3':
        {'gens': ['x'], 'stabilized': True, 'stab': 1},
    'tau-relative/stabilization_scan/div(tx)/F5':
        {'gens': ['t^5*x^2'], 'stabilized': True, 'stab': 1},
    'tau-relative/stabilization_scan/half-divisor/F5':
        {'gens': ['x'], 'stabilized': True, 'stab': 1},
    'tau-relative/stabilization_scan/shifted-divisor/F5':
        {'gens': ['t^5*x^2 + 4*t^5*x + 4*t^5'], 'stabilized': True, 'stab': 1},
    'tau-relative/skoda_check/div(tx)/F3/n=0': {'skoda': True},
    'tau-relative/skoda_check/div(tx)/F3/n=1': {'skoda': True},
    'tau-relative/skoda_check/div(tx)/F3/n=2': {'skoda': True},
    'tau-relative/skoda_check/div(tx)/F3/n=3': {'skoda': True},
    'tau-relative/skoda_check/growth/F3/n=0': {'skoda': True},
    'tau-relative/skoda_check/growth/F3/n=1': {'skoda': True},
    'tau-relative/skoda_check/growth/F3/n=2': {'skoda': True},
    'tau-relative/skoda_check/growth/F3/n=3': {'skoda': True},
    'tau-relative/skoda_check/growth-skoda/F3/n=0': {'skoda': True},
    'tau-relative/skoda_check/growth-skoda/F3/n=1': {'skoda': True},
    'tau-relative/skoda_check/growth-skoda/F3/n=2': {'skoda': True},
    'tau-relative/skoda_check/half-divisor/F3/n=0': {'skoda': True},
    'tau-relative/skoda_check/half-divisor/F3/n=1': {'skoda': True},
    'tau-relative/skoda_check/half-divisor/F3/n=2': {'skoda': True},
    'tau-relative/skoda_check/half-divisor/F3/n=3': {'skoda': True},
    'tau-relative/skoda_check/div(tx)/F5/n=0': {'skoda': True},
    'tau-relative/skoda_check/div(tx)/F5/n=1': {'skoda': True},
    'tau-relative/skoda_check/div(tx)/F5/n=2': {'skoda': True},
    'tau-relative/skoda_check/div(tx)/F5/n=3': {'skoda': True},
    'tau-relative/skoda_check/half-divisor/F5/n=0': {'skoda': True},
    'tau-relative/skoda_check/half-divisor/F5/n=1': {'skoda': True},
    'tau-relative/skoda_check/half-divisor/F5/n=2': {'skoda': True},
    'tau-relative/skoda_check/half-divisor/F5/n=3': {'skoda': True},
    'tau-relative/skoda_check/shifted-divisor/F5/n=0': {'skoda': True},
    'tau-relative/skoda_check/shifted-divisor/F5/n=1': {'skoda': True},
    'tau-relative/skoda_check/shifted-divisor/F5/n=2': {'skoda': True},
    'tau-relative/skoda_check/shifted-divisor/F5/n=3': {'skoda': True},
    'tau-relative/tau_relative/growth-skoda/F3/n=0':
        {'gens': ['x^4', 't*x^3', 't^2*x^2']},
    'tau-relative/tau_relative/growth-skoda/F3/n=1':
        {'gens': ['x^4', 't^2*x^3', 't^4*x^2', 't^7*x']},
    'tau-relative/tau_relative/growth-skoda/F3/n=2':
        {'gens': ['x^4', 't^6*x^3', 't^10*x^2', 't^19*x']},
    'tau-relative/tau_relative/growth-skoda/F3/n=3':
        {'gens': ['x^4', 't^18*x^3', 't^28*x^2', 't^55*x']},
    'tau-relative/tau_pair_divisor/F7/5/6*div(x^2 + y^3)':
        {'gens': ['y', 'x'], 'stab': 2},
    'tau-relative/tau_pair_divisor/F7/1/2*div(x^2 + y^3)':
        {'gens': ['1'], 'stab': 2},
    'tau-relative/tau_pair_divisor/F5/1/2*div(x^2 + y^3)':
        {'gens': ['1'], 'stab': 2},
    'tau-relative/tau_pair_divisor/F7/2/3*div(x^3 + y^3 + z^3)':
        {'gens': ['1'], 'stab': 2},
    'tau-relative/tau_pair_divisor/F7/1/2*div(x^3 + y^3 + z^3)':
        {'gens': ['1'], 'stab': 2},
    'tau-relative/tau_pair_divisor/F3/1/2*div(x) + 1*div(y)':
        {'gens': ['y'], 'stab': 2},
    'tau-relative/tau_pair_divisor/F5/2/3*div(x*y*(x + y))':
        {'gens': ['y', 'x'], 'stab': 2},
}
