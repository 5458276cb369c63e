"""The discrete compactness quantity of the time-translate estimate (Alt &
Luckhaus, Math. Z. 183, 1983): the backward-difference energy at a lag of
``k`` steps,

    (1/(k*h)) * sum_{n>=k} h * integral (b(u^n) - b(u^{n-k})) * (u^n - u^{n-k}),

nonnegative because ``b`` is monotone, and bounded independently of h.  No
command certifies it yet, so it lives with the other test oracles, where a
per-run certificate of it can be checked against it.
"""

from kirchflow.grid import integrate_array


def time_quotient(states, h, dz, k, table):
    """The compactness quantity at lag ``k`` steps over the rows ``states``
    (one per state u^0..u^N, such as ``traj.values[traj.rows]``), one state
    at a time, with one ``all_channels`` call per state."""
    total = 0.0
    for n in range(k, len(states)):
        du = states[n] - states[n - k]
        db = table.all_channels(states[n])[0] - table.all_channels(states[n - k])[0]
        total += h * float(integrate_array(db * du, dz))
    return total / (k * h)
