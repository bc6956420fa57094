"""Write the ``/predict`` bodies a snapshot serves for a seeded sweep.

Usage: ``PYTHONPATH=<src> python served_bytes.py SNAPSHOT OUT [--seed N]``

Loads ``SNAPSHOT`` into a ``LookupEngine`` and writes, one per line,
``PredictionBatch.to_json`` for 300 seeded requests: every other one
a full-client batch, the rest 32-client batches that mix in ids the
snapshot has never seen, and about a quarter of all requests repeat an
earlier configuration, so the engine's memos and cached rows answer
too.  Two source trees serve the same snapshot identically exactly when
their outputs ``cmp`` equal.
"""

import argparse
import random

from repro.core.config import AnycastConfig
from repro.serve import LookupEngine, load_snapshot

REQUESTS = 300
BATCH_CLIENTS = 32


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("snapshot")
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    engine = LookupEngine(load_snapshot(args.snapshot))
    sites, clients = list(engine.site_ids()), list(engine.client_ids())
    unknown = [max(clients) + 1 + i for i in range(8)]
    rng = random.Random(args.seed)
    asked = []
    with open(args.out, "wb") as out:
        for number in range(REQUESTS):
            if asked and rng.random() < 0.25:
                order = rng.choice(asked)
            else:
                order = tuple(rng.sample(sites, rng.randint(1, len(sites))))
                asked.append(order)
            request = None
            if number % 2:
                request = rng.sample(clients, BATCH_CLIENTS - 4) + rng.sample(unknown, 4)
                rng.shuffle(request)
            batch = engine.predict(AnycastConfig(site_order=order), request)
            out.write(batch.to_json(engine.version) + b"\n")


if __name__ == "__main__":
    main()
