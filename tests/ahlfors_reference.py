"""The whole-box Ahlfors sampler that ``modulus.ahlfors_sampler`` replaced, kept as a reference.

Each ball draws all ``n_samples`` points uniformly on the box of half-width
``BOX_FACTOR`` times the certified reach and finds the ones in the ball with
``rows_in_ball``.  ``ahlfors_sampler`` draws only the points of that box
that land in the reach square, so its estimates have the same law as these,
not the same bytes.
"""

import numpy as np

from almqr.covers import ball_reach, minv
from almqr.modulus import BOX_FACTOR, UNIT_BALL_VOLUME, OmegaFSample, metric_jacobian_values, rows_in_ball


def ahlfors_box_sampler(f, centers, radii, n_samples: int, seed: int = 0) -> list[OmegaFSample]:
    """One ``OmegaFSample`` per (center, radius), each from ``n_samples`` draws on the whole box."""
    const = UNIT_BALL_VOLUME[2] * f.degree * f.K_I * f.K_O
    out = []
    for ic, y0 in enumerate(centers):
        y0 = np.asarray(y0, dtype=np.float64)
        z = minv(f, y0)
        zC = z.expand()
        for ir, r in enumerate(radii):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 11, ic, ir]))
            R = BOX_FACTOR * ball_reach(f, zC, r)
            ys = rng.uniform(y0 - R, y0 + R, size=(n_samples, 2))
            rows, fibers = rows_in_ball(f, y0, zC, r, ys)
            vals = np.zeros(n_samples)
            vals[rows] = metric_jacobian_values(f, fibers)
            vol_box = (2.0 * R) ** 2
            est = vol_box * float(vals.mean())
            sd = vol_box * float(vals.std(ddof=1) / np.sqrt(n_samples))
            denom = const * r**2
            out.append(OmegaFSample(z.to_json(), float(r), est, 3.0 * sd, est / denom, 3.0 * sd / denom, len(rows)))
    return out
