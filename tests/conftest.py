"""Shared field, planar-function, and design fixtures."""
import numpy as np
import pytest

from shiftunital import (build_unital, construct_theta, coulter_matthews_spec,
                         find_thetas, make_field, make_tower, square_spec)


@pytest.fixture(scope="session")
def tower3():
    return make_tower(make_field(3, 1))


@pytest.fixture(scope="session")
def tower5():
    return make_tower(make_field(5, 1))


@pytest.fixture(scope="session")
def tower7():
    return make_tower(make_field(7, 1))


@pytest.fixture(scope="session")
def tower9():
    return make_tower(make_field(3, 2))


@pytest.fixture(scope="session")
def tower11():
    return make_tower(make_field(11, 1))


@pytest.fixture(scope="session")
def tower27():
    return make_tower(make_field(3, 3))


@pytest.fixture(scope="session")
def towers(tower3, tower5, tower7, tower9):
    return {3: tower3, 5: tower5, 7: tower7, 9: tower9}


@pytest.fixture(scope="session")
def instances(towers):
    """(q, f_name) -> (tower, f, setup, design) for the five desk-scale designs."""
    out = {}
    for q, tower in towers.items():
        f = square_spec(tower.ext)
        setup = construct_theta(tower)
        out[q, "square"] = (tower, f, setup, build_unital(f, setup))
    tower = towers[9]
    f = coulter_matthews_spec(tower.ext, 3)
    setup = find_thetas(f, tower)[0]
    out[9, "cm3"] = (tower, f, setup, build_unital(f, setup))
    return out


@pytest.fixture(scope="session")
def design3(instances):
    return instances[3, "square"][3]


@pytest.fixture(scope="session")
def design5(instances):
    return instances[5, "square"][3]


@pytest.fixture(scope="session")
def design9(instances):
    return instances[9, "square"][3]


@pytest.fixture(scope="session")
def setup3(instances):
    return instances[3, "square"][2]


@pytest.fixture(scope="session")
def setup9(instances):
    return instances[9, "square"][2]


@pytest.fixture(scope="session")
def square3(instances):
    return instances[3, "square"][1]


@pytest.fixture(scope="session")
def square9(instances):
    return instances[9, "square"][1]


def gf2_rank_dense(rows, width):
    """Plain Gaussian elimination oracle over GF(2) on a dense 0/1 matrix."""
    mat = np.zeros((len(rows), width), dtype=np.uint8)
    for i, row in enumerate(rows):
        mat[i, list(row)] = 1
    rank = 0
    for col in range(width):
        piv = None
        for r in range(rank, len(rows)):
            if mat[r, col]:
                piv = r
                break
        if piv is None:
            continue
        mat[[rank, piv]] = mat[[piv, rank]]
        hits = np.flatnonzero(mat[:, col])
        hits = hits[hits != rank]
        mat[hits] ^= mat[rank]
        rank += 1
    return rank
