"""Brute-force references that the tests compare the package against."""

from asym.errors import DomainError


def subgroup_closure(group, seed) -> frozenset[int]:
    """Smallest subgroup containing the seed elements; always contains e.
    The fixed-point loop that `groups.is_subgroup` must agree with."""
    n = group.order
    for s in seed:
        if not 0 <= int(s) < n:
            raise DomainError(f"element index {s} out of range [0, {n})")
    closed = {group.identity}
    frontier = list(set(int(s) for s in seed))
    closed.update(group.inv[g] for g in frontier)
    closed.update(frontier)
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for b in list(closed):
                c = int(group.mult[a, b])
                if c not in closed:
                    closed.add(c)
                    changed = True
    return frozenset(closed)
