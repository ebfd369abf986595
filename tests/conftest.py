import random
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import strategies as st

# appended, not prepended: a PYTHONPATH that names another checkout's src/
# wins, so this suite can test that checkout
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from helpers import graph_from_mask


@pytest.fixture(autouse=True, scope="session")
def _stable_random():
    random.seed(20250809)


def random_graphs(min_n=4, max_n=6):
    """Hypothesis strategy for labeled graphs (isolated vertices allowed)."""

    def build(n, seed):
        return graph_from_mask(n, seed % (1 << comb(n, 2)))

    return st.builds(
        build,
        st.integers(min_value=min_n, max_value=max_n),
        st.integers(min_value=0),
    )


def random_graphs_min_degree_one(min_n=4, max_n=6):
    return random_graphs(min_n, max_n).filter(
        lambda G: all(row != 0 for row in G.adj)
    )
