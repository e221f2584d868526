import pytest

from oddcross import build_tensor, feasible_dimension, parse_scheme_text
from oddcross.schemes import _axis_choice_masks

# Three 7-dimensional reference schemes used throughout: scheme 11 and 20
# are the two whose canonical orientation satisfies the magnitude identity,
# scheme 2 is closed but fails it.
ROW3_5D = "24 35 / 13 45 / 14 25 / 15 23 / 12 34"
ROW11_7D = "24 37 56 / 14 35 67 / 17 25 46 / 12 36 57 / 16 23 47 / 15 27 34 / 13 26 45"
ROW20_7D = "26 34 57 / 16 37 45 / 14 27 56 / 13 25 67 / 17 24 36 / 12 35 47 / 15 23 46"
ROW2_7D = "23 45 67 / 13 47 56 / 12 46 57 / 15 27 36 / 14 26 37 / 17 25 34 / 16 24 35"


class Index:
    """An int-like value that is not an int, as numpy integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def random_branch(n, rng):
    """A uniformly ordered depth-first exact cover: a random scheme's branch."""
    masks = _axis_choice_masks(n)
    orders = [rng.sample(range(len(m)), len(m)) for m in masks]

    def dfs(depth, used):
        if depth == n:
            return ()
        for choice in orders[depth]:
            mask = masks[depth][choice]
            if not mask & used:
                rest = dfs(depth + 1, used | mask)
                if rest is not None:
                    return (choice,) + rest
        return None

    return dfs(0, 0)


@pytest.fixture(scope="session")
def dim3():
    return feasible_dimension(3)


@pytest.fixture(scope="session")
def dim5():
    return feasible_dimension(5)


@pytest.fixture(scope="session")
def dim7():
    return feasible_dimension(7)


@pytest.fixture(scope="session")
def scheme3():
    return parse_scheme_text("n=3\n1: 2-3\n2: 1-3\n3: 1-2")


@pytest.fixture(scope="session")
def scheme5_row3():
    return parse_scheme_text(ROW3_5D, 5)


@pytest.fixture(scope="session")
def scheme7_row11():
    return parse_scheme_text(ROW11_7D, 7)


@pytest.fixture(scope="session")
def scheme7_row20():
    return parse_scheme_text(ROW20_7D, 7)


@pytest.fixture(scope="session")
def scheme7_row2():
    return parse_scheme_text(ROW2_7D, 7)


@pytest.fixture(scope="session")
def tensor3(scheme3):
    return build_tensor(scheme3)


@pytest.fixture(scope="session")
def tensor5_row3(scheme5_row3):
    return build_tensor(scheme5_row3)


@pytest.fixture(scope="session")
def tensor7_row11(scheme7_row11):
    return build_tensor(scheme7_row11)


@pytest.fixture(scope="session")
def tensor7_row2(scheme7_row2):
    return build_tensor(scheme7_row2)
