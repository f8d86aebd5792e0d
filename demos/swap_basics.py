"""Two-mode squeezing in, multipartite GHZ correlations out.

N identical copies of an entangled two-mode state feed the N-port relay;
one port is read out in P, the rest in X. The surviving modes form a
permutation-symmetric cluster whose covariance we know in closed form, so
this script cross-checks the full measurement pipeline against it and then
watches the GHZ variances N*Var(P_sum) and Var(X_i - X_j) collapse as the
input squeezing grows.
"""

import numpy as np

from cvswap import (
    bell_detect,
    build_relay,
    cluster_closed_form,
    diff_x_variance,
    log_negativity,
    sum_p_variance,
    swap_logneg_two,
    tmsv,
)


def main():
    mu = 5.0
    nf = tmsv(mu)
    print(f"input: two-mode squeezed vacuum, variance mu = {mu}")
    print(f"input log-negativity: {nf.log_negativity():.6f}\n")

    print("closed-form cluster vs measurement pipeline")
    for n in (2, 3, 5, 8):
        closed = cluster_closed_form(nf.x, nf.y, nf.z, n).assemble()
        piped, _ = bell_detect([nf.state() for _ in range(n)], build_relay(n))
        err = np.max(np.abs(closed - piped.cov))
        print(f"  N = {n}: max |difference| = {err:.2e}")

    # the conditional covariance does not depend on the homodyne readouts:
    # the relay broadcasts them and each user undoes the displacement
    # locally. For identical normal-form copies every readout's conditional
    # variance, measured port after port, is x
    _, variances = bell_detect([nf.state()] * 3, build_relay(3))
    print("\nreadout variances (N = 3), each equal to x")
    print(f"  {np.array2string(variances, precision=6)}  (x = {nf.x:.6f})")

    print("\nGHZ limit: Var(sum_k P_k) = N/mu and Var(X_i - X_j) = 2/mu")
    n = 4
    for mu in (2.0, 10.0, 100.0, 1000.0):
        nf = tmsv(mu)
        out, _ = bell_detect([nf.state()] * n, build_relay(n))
        vp = sum_p_variance(out.cov)
        vx = diff_x_variance(out.cov, 0, 2)
        print(f"  mu = {mu:6.0f}:  Var(P_sum) = {vp:.4e} (N/mu = {n/mu:.4e})"
              f"   Var(X_0 - X_2) = {vx:.4e} (2/mu = {2/mu:.4e})")

    print("\ntwo-user swap never beats the input:")
    for mu in (1.5, 3.0, 10.0):
        nf = tmsv(mu)
        e_out = swap_logneg_two(nf.x, nf.y, nf.z)
        print(f"  mu = {mu:5.1f}:  E_in = {nf.log_negativity():.4f}  ->  E_out = {e_out:.4f}")


if __name__ == "__main__":
    main()
