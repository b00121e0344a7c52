"""Per-case error tolerances, written by calibrate.py; see its docstring."""

# Calibration seeds 1000-1099 (grid_bound: the first twenty). Comment: worst error seen.
GFS_TOL = {
    ('analytic', 'gaussian', 2, 64): 1e-06,  # 9.16e-08
    ('analytic', 'gaussian', 2, 128): 1e-09,  # 1.64e-11
    ('analytic', 'gaussian', 2, 16384): 1e-08,  # 1.75e-10
    ('analytic', 'gaussian', 2, 32768): 1e-08,  # 5.79e-10
    ('analytic', 'gaussian', 3, 64): 1e-09,  # 2.07e-11  battery
    ('analytic', 'gaussian', 3, 128): 1e-10,  # 1.40e-12
    ('analytic', 'gaussian', 3, 16384): 1e-08,  # 1.65e-10
    ('analytic', 'gaussian', 3, 32768): 1e-09,  # 1.77e-11
    ('analytic', 'gaussian', 4, 64): 1e-11,  # 5.17e-13
    ('analytic', 'gaussian', 4, 128): 1e-09,  # 2.40e-11
    ('analytic', 'gaussian', 4, 16384): 1e-09,  # 1.42e-11
    ('analytic', 'gaussian', 4, 32768): 1e-08,  # 5.16e-10
    ('analytic', 'leakage_demo', 2, 64): 1e-11,  # 2.74e-13
    ('analytic', 'leakage_demo', 2, 128): 1e-11,  # 4.46e-13
    ('analytic', 'leakage_demo', 2, 16384): 1e-09,  # 7.77e-11
    ('analytic', 'leakage_demo', 2, 32768): 1e-08,  # 1.86e-10
    ('analytic', 'leakage_demo', 3, 64): 1e-11,  # 2.60e-13
    ('analytic', 'leakage_demo', 3, 128): 1e-11,  # 4.01e-13
    ('analytic', 'leakage_demo', 3, 16384): 1e-09,  # 7.13e-11
    ('analytic', 'leakage_demo', 3, 32768): 1e-08,  # 2.04e-10
    ('analytic', 'leakage_demo', 4, 64): 1e-11,  # 2.43e-13
    ('analytic', 'leakage_demo', 4, 128): 1e-11,  # 4.35e-13
    ('analytic', 'leakage_demo', 4, 16384): 1e-09,  # 8.05e-11
    ('analytic', 'leakage_demo', 4, 32768): 1e-08,  # 1.76e-10
    ('analytic', 'modulated_sine', 2, 64): 1e-12,  # 1.05e-14  battery
    ('analytic', 'modulated_sine', 2, 128): 1e-12,  # 1.85e-14
    ('analytic', 'modulated_sine', 2, 16384): 1e-10,  # 3.61e-12
    ('analytic', 'modulated_sine', 2, 32768): 1e-10,  # 6.79e-12
    ('analytic', 'modulated_sine', 3, 64): 1e-12,  # 1.03e-14
    ('analytic', 'modulated_sine', 3, 128): 1e-12,  # 2.11e-14
    ('analytic', 'modulated_sine', 3, 16384): 1e-10,  # 3.61e-12
    ('analytic', 'modulated_sine', 3, 32768): 1e-10,  # 8.15e-12
    ('analytic', 'modulated_sine', 4, 64): 1e-12,  # 1.94e-14
    ('analytic', 'modulated_sine', 4, 128): 1e-12,  # 3.83e-14
    ('analytic', 'modulated_sine', 4, 16384): 1e-10,  # 3.91e-12
    ('analytic', 'modulated_sine', 4, 32768): 1e-10,  # 7.80e-12
    ('analytic', 'multimode', 2, 64): 1e-06,  # 1.10e-08
    ('analytic', 'multimode', 2, 128): 1e-09,  # 7.82e-11
    ('analytic', 'multimode', 2, 16384): 1e-09,  # 4.49e-11
    ('analytic', 'multimode', 2, 32768): 1e-08,  # 1.09e-10
    ('analytic', 'multimode', 3, 64): 1e-11,  # 1.51e-13
    ('analytic', 'multimode', 3, 128): 1e-11,  # 1.99e-13
    ('analytic', 'multimode', 3, 16384): 1e-09,  # 4.50e-11
    ('analytic', 'multimode', 3, 32768): 1e-08,  # 1.03e-10
    ('analytic', 'multimode', 4, 64): 1e-12,  # 4.97e-14
    ('analytic', 'multimode', 4, 128): 1e-11,  # 1.16e-13
    ('analytic', 'multimode', 4, 16384): 1e-09,  # 2.30e-11
    ('analytic', 'multimode', 4, 32768): 1e-09,  # 3.64e-11
    ('analytic', 'trig_poly', 2, 64): 1e-11,  # 1.12e-13
    ('analytic', 'trig_poly', 2, 128): 1e-11,  # 1.65e-13
    ('analytic', 'trig_poly', 2, 16384): 1e-09,  # 2.42e-11
    ('analytic', 'trig_poly', 2, 32768): 1e-09,  # 4.71e-11
    ('analytic', 'trig_poly', 3, 64): 1e-11,  # 1.10e-13
    ('analytic', 'trig_poly', 3, 128): 1e-11,  # 1.67e-13
    ('analytic', 'trig_poly', 3, 16384): 1e-09,  # 2.80e-11
    ('analytic', 'trig_poly', 3, 32768): 1e-09,  # 6.05e-11
    ('analytic', 'trig_poly', 4, 64): 1e-11,  # 1.07e-13
    ('analytic', 'trig_poly', 4, 128): 1e-08,  # 8.07e-10
    ('analytic', 'trig_poly', 4, 16384): 1e-09,  # 2.39e-11
    ('analytic', 'trig_poly', 4, 32768): 1e-09,  # 7.71e-11
    ('fd', 'gaussian', 2, 256): 1e-09,  # 1.55e-11
    ('fd', 'gaussian', 2, 1024): 1e-08,  # 1.23e-10
    ('fd', 'gaussian', 3, 256): 1e-09,  # 7.97e-11  battery
    ('fd', 'gaussian', 3, 1024): 1e-06,  # 1.28e-08
    ('fd', 'gaussian', 4, 256): 1e-07,  # 1.16e-09
    ('fd', 'gaussian', 4, 1024): 1e-05,  # 6.05e-07
    ('fd', 'log_fn', 2, 256): 1e-05,  # 2.82e-07
    ('fd', 'log_fn', 2, 1024): 1e-08,  # 2.63e-10
    ('fd', 'log_fn', 3, 256): 1e-07,  # 3.40e-09
    ('fd', 'log_fn', 3, 1024): 1e-06,  # 2.26e-08
    ('fd', 'log_fn', 4, 256): 1e-07,  # 1.03e-09
    ('fd', 'log_fn', 4, 1024): 1e-05,  # 8.96e-07
    ('fd', 'modulated_sine', 2, 256): 1e-10,  # 5.44e-12
    ('fd', 'modulated_sine', 2, 1024): 1e-08,  # 4.78e-10
    ('fd', 'modulated_sine', 3, 256): 1e-09,  # 4.80e-11
    ('fd', 'modulated_sine', 3, 1024): 1e-06,  # 1.15e-08
    ('fd', 'modulated_sine', 4, 256): 1e-08,  # 6.02e-10
    ('fd', 'modulated_sine', 4, 1024): 1e-05,  # 2.82e-07
    ('fd', 'monomial', 2, 256): 0.0001,  # 7.11e-06
    ('fd', 'monomial', 2, 1024): 0.0001,  # 1.03e-06
    ('fd', 'monomial', 3, 256): 0.0001,  # 3.21e-06
    ('fd', 'monomial', 3, 1024): 0.0001,  # 1.05e-06
    ('fd', 'monomial', 4, 256): 1e-06,  # 5.03e-08
    ('fd', 'monomial', 4, 1024): 0.001,  # 1.73e-05
}
TABLE_TOL = {
    ('gaussian', 32, 'eckhoff'): 1e-07,  # 5.89e-09
    ('gaussian', 32, 'fd'): 0.1,  # 5.63e-03
    ('gaussian', 32, 'fft'): 100,  # 2.89e+00
    ('gaussian', 32, 'gfs'): 1e-05,  # 1.86e-07
    ('gaussian', 32, 'roache'): 1e-07,  # 4.89e-09
    ('gaussian', 64, 'eckhoff'): 1e-07,  # 5.71e-09
    ('gaussian', 64, 'fd'): 0.001,  # 9.36e-05  battery
    ('gaussian', 64, 'fft'): 100,  # 5.29e+00  battery
    ('gaussian', 64, 'gfs'): 1e-10,  # 7.01e-12  battery
    ('gaussian', 64, 'roache'): 1e-07,  # 1.31e-09
    ('gaussian', 128, 'eckhoff'): 1e-06,  # 1.71e-08
    ('gaussian', 128, 'fd'): 0.0001,  # 1.24e-06
    ('gaussian', 128, 'fft'): 1e+03,  # 1.05e+01
    ('gaussian', 128, 'gfs'): 1e-10,  # 1.23e-12
    ('gaussian', 128, 'roache'): 1e-07,  # 2.95e-09
    ('leakage_demo', 32, 'eckhoff'): 10,  # 2.37e-01
    ('leakage_demo', 32, 'fd'): 1e+03,  # 5.89e+01
    ('leakage_demo', 32, 'fft'): 1e+03,  # 1.03e+01
    ('leakage_demo', 32, 'gfs'): 1e-11,  # 1.21e-13
    ('leakage_demo', 32, 'roache'): 10,  # 2.36e-01
    ('leakage_demo', 64, 'eckhoff'): 0.1,  # 4.69e-03
    ('leakage_demo', 64, 'fd'): 100,  # 3.04e+00
    ('leakage_demo', 64, 'fft'): 1e+03,  # 1.28e+01
    ('leakage_demo', 64, 'gfs'): 1e-11,  # 2.26e-13
    ('leakage_demo', 64, 'roache'): 0.1,  # 2.28e-03
    ('leakage_demo', 128, 'eckhoff'): 0.1,  # 9.06e-03
    ('leakage_demo', 128, 'fd'): 1,  # 9.74e-02
    ('leakage_demo', 128, 'fft'): 1e+03,  # 2.21e+01
    ('leakage_demo', 128, 'gfs'): 1e-11,  # 3.84e-13
    ('leakage_demo', 128, 'roache'): 0.1,  # 4.49e-03
    ('log_fn', 32, 'eckhoff'): 0.01,  # 2.87e-04
    ('log_fn', 32, 'fd'): 0.1,  # 9.36e-03
    ('log_fn', 32, 'fft'): 1e+03,  # 1.02e+01
    ('log_fn', 32, 'gfs'): 0.0001,  # 8.49e-06
    ('log_fn', 32, 'roache'): 0.01,  # 2.32e-04
    ('log_fn', 64, 'eckhoff'): 0.01,  # 1.57e-04
    ('log_fn', 64, 'fd'): 0.01,  # 8.17e-04
    ('log_fn', 64, 'fft'): 1e+03,  # 1.94e+01
    ('log_fn', 64, 'gfs'): 1e-06,  # 2.21e-08
    ('log_fn', 64, 'roache'): 0.001,  # 3.90e-05
    ('log_fn', 128, 'eckhoff'): 0.01,  # 4.50e-04
    ('log_fn', 128, 'fd'): 0.001,  # 4.03e-05
    ('log_fn', 128, 'fft'): 1e+03,  # 3.78e+01
    ('log_fn', 128, 'gfs'): 1e-09,  # 2.09e-11  battery
    ('log_fn', 128, 'roache'): 0.001,  # 9.10e-05
    ('modulated_sine', 32, 'eckhoff'): 1e-13,  # 9.21e-15
    ('modulated_sine', 32, 'fd'): 0.0001,  # 5.68e-06
    ('modulated_sine', 32, 'fft'): 100,  # 1.03e+00
    ('modulated_sine', 32, 'gfs'): 1e-13,  # 4.44e-15
    ('modulated_sine', 32, 'roache'): 1e-13,  # 6.77e-15
    ('modulated_sine', 64, 'eckhoff'): 1e-12,  # 2.01e-14
    ('modulated_sine', 64, 'fd'): 1e-06,  # 9.68e-08
    ('modulated_sine', 64, 'fft'): 100,  # 1.76e+00
    ('modulated_sine', 64, 'gfs'): 1e-13,  # 9.91e-15
    ('modulated_sine', 64, 'roache'): 1e-12,  # 1.05e-14
    ('modulated_sine', 128, 'eckhoff'): 1e-12,  # 4.49e-14
    ('modulated_sine', 128, 'fd'): 1e-07,  # 1.46e-09
    ('modulated_sine', 128, 'fft'): 100,  # 3.13e+00
    ('modulated_sine', 128, 'gfs'): 1e-12,  # 2.18e-14
    ('modulated_sine', 128, 'roache'): 1e-12,  # 3.67e-14
    ('monomial', 32, 'eckhoff'): 1e-12,  # 5.33e-14
    ('monomial', 32, 'fd'): 1e-11,  # 3.52e-13
    ('monomial', 32, 'fft'): 1e+04,  # 2.20e+02
    ('monomial', 32, 'gfs'): 1e-07,  # 6.24e-09
    ('monomial', 32, 'roache'): 1e-12,  # 5.68e-14
    ('monomial', 64, 'eckhoff'): 1e-11,  # 1.53e-13
    ('monomial', 64, 'fd'): 1e-10,  # 1.44e-12
    ('monomial', 64, 'fft'): 1e+04,  # 4.38e+02
    ('monomial', 64, 'gfs'): 1e-06,  # 1.03e-08
    ('monomial', 64, 'roache'): 1e-11,  # 1.28e-13
    ('monomial', 128, 'eckhoff'): 1e-11,  # 3.73e-13
    ('monomial', 128, 'fd'): 1e-10,  # 1.88e-12
    ('monomial', 128, 'fft'): 1e+04,  # 8.76e+02
    ('monomial', 128, 'gfs'): 1e-06,  # 3.24e-08
    ('monomial', 128, 'roache'): 1e-11,  # 3.62e-13
    ('multimode', 32, 'eckhoff'): 1e-06,  # 6.91e-08
    ('multimode', 32, 'fd'): 1,  # 9.08e-02
    ('multimode', 32, 'fft'): 100,  # 6.06e+00
    ('multimode', 32, 'gfs'): 1e-08,  # 3.09e-10
    ('multimode', 32, 'roache'): 1e-06,  # 3.53e-08
    ('multimode', 64, 'eckhoff'): 1e-06,  # 7.41e-08
    ('multimode', 64, 'fd'): 0.1,  # 1.38e-03
    ('multimode', 64, 'fft'): 1e+03,  # 1.13e+01
    ('multimode', 64, 'gfs'): 1e-11,  # 1.54e-13
    ('multimode', 64, 'roache'): 1e-06,  # 1.18e-08
    ('multimode', 128, 'eckhoff'): 1e-05,  # 1.79e-07
    ('multimode', 128, 'fd'): 0.001,  # 2.45e-05
    ('multimode', 128, 'fft'): 1e+03,  # 2.17e+01
    ('multimode', 128, 'gfs'): 1e-11,  # 2.00e-13
    ('multimode', 128, 'roache'): 1e-06,  # 3.09e-08
    ('trig_poly', 32, 'eckhoff'): 1e-12,  # 4.80e-14
    ('trig_poly', 32, 'fd'): 10,  # 7.13e-01
    ('trig_poly', 32, 'fft'): 1e-12,  # 4.26e-14
    ('trig_poly', 32, 'gfs'): 1e-12,  # 4.26e-14
    ('trig_poly', 32, 'roache'): 1e-12,  # 4.80e-14
    ('trig_poly', 64, 'eckhoff'): 1e-11,  # 1.14e-13
    ('trig_poly', 64, 'fd'): 1,  # 1.18e-02
    ('trig_poly', 64, 'fft'): 1e-11,  # 1.14e-13
    ('trig_poly', 64, 'gfs'): 1e-11,  # 1.14e-13
    ('trig_poly', 64, 'roache'): 1e-11,  # 1.15e-13
    ('trig_poly', 128, 'eckhoff'): 1e-11,  # 1.49e-13
    ('trig_poly', 128, 'fd'): 0.01,  # 2.17e-04
    ('trig_poly', 128, 'fft'): 1e-11,  # 1.56e-13
    ('trig_poly', 128, 'gfs'): 1e-11,  # 1.56e-13
    ('trig_poly', 128, 'roache'): 1e-11,  # 1.55e-13
}
# raised: ('fit_bound', 'leakage_demo', 4, 64, 'RealnessViolation') x2
# raised: ('fit_bound', 'trig_poly', 4, 64, 'RealnessViolation') x1
# raised: ('fit_bound', 'trig_poly', 4, 128, 'RealnessViolation') x2
