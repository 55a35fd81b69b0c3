"""The benchmark's four workloads: campaign specs generated from a seed.

Every workload runs March C- on the packed backend with simd auto, the
repack scheduler and min(4, nproc) threads.  The workload seed sets the
nonzero content seeds of seed-mix and service-replay; mid-list and
huge-sparse keep all-zero contents (seed 0) whatever the seed, because
that is the input shape their collapse and paging paths exist for.
"""

import os

MASK64 = (1 << 64) - 1


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def content_seeds(seed, count):
    """`count` distinct nonzero 32-bit content seeds drawn from `seed`."""
    out, state = [], seed
    while len(out) < count:
        state = splitmix64(state)
        value = state & 0xFFFFFFFF
        if value and value not in out:
            out.append(value)
    return out


def threads():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def _spec(name, words, width, schemes, classes, seeds, regions=1):
    run = {
        "backend": "packed",
        "threads": threads(),
        "simd": "auto",
        "schedule": "repack",
        "collapse": True,
    }
    if regions != 1:
        run["regions"] = regions
    return {
        "name": name,
        "memory": {"words": words, "width": width},
        "march": "March C-",
        "schemes": schemes,
        "classes": classes,
        "seeds": seeds,
        "run": run,
    }


def mid_list(seed):
    del seed  # all-zero contents keep the SAF/TF collapse enabled
    return _spec("mid-list", 4096, 8, ["twm"], ["saf", "tf", "cfid:inter@20000"], [0])


def huge_sparse(seed):
    # 2^18 words rather than 2^20: the cost still grows with words, and a
    # 2.5 s campaign leaves enough samples in a run for a steady median.
    del seed  # all-zero contents keep untouched pages free
    return _spec(
        "huge-sparse", 1 << 18, 4, ["twm"], ["saf@2048", "tf@1024", "cfid:inter@512"], [0],
        regions=4,
    )


def seed_mix(seed):
    return _spec(
        "seed-mix", 1024, 8, ["twm", "twm-misr", "tomt", "sym"], ["saf", "tf", "ret"],
        content_seeds(seed, 4),
    )


def service_replay(seed):
    return _spec(
        "service-replay", 256, 8, ["twm", "tomt"], ["saf", "tf", "cfid:inter@4096"],
        content_seeds(seed, 2),
    )


# name -> (spec generator, how the workload is driven)
WORKLOADS = {
    "mid-list": (mid_list, "cli"),
    "huge-sparse": (huge_sparse, "cli"),
    "seed-mix": (seed_mix, "cli"),
    "service-replay": (service_replay, "service"),
}
