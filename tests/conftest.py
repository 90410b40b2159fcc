import pytest

from hopfarb import embeds, universe


@pytest.fixture(scope="session")
def u2():
    return universe(2)


@pytest.fixture(scope="session")
def u3():
    return universe(3)


@pytest.fixture(scope="session")
def u4():
    return universe(4)


@pytest.fixture(scope="session")
def u5():
    return universe(5)


@pytest.fixture(scope="session")
def u6():
    return universe(6)


def _pairwise_relation(u):
    """Reference relation: the DP on every pair of strictly increasing size."""
    trees = u.trees
    return [
        (i, j)
        for i, ti in enumerate(trees)
        for j, tj in enumerate(trees)
        if tj.size > ti.size and embeds(ti, tj)
    ]


@pytest.fixture(scope="session")
def pairwise_relation():
    """``pairwise_relation(u)``: sorted (i, j) pairs with trees[i] embedding strictly into trees[j]."""
    cache = {}

    def relation(u):
        if u.nmax not in cache:
            cache[u.nmax] = _pairwise_relation(u)
        return cache[u.nmax]

    return relation
