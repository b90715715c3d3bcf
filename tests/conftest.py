import os
from itertools import product

import pytest

from frobcheck._engine import mono_divides
from frobcheck.algebra_kernel import standard_monomials
from frobcheck.budget import DEFAULT_BUDGET
from frobcheck.cli import parse_model

MODELS_DIR = os.path.join(os.path.dirname(__file__), "models")


def load_model(name):
    with open(os.path.join(MODELS_DIR, name), "rb") as fh:
        return parse_model(fh.read())


def model_path(name):
    return os.path.join(MODELS_DIR, name)


def packed(ctx, terms):
    """The packed column of ``terms``, {(row, exponent tuple): coeff},
    under the layout of the EngineContext ``ctx``."""
    return ctx.pack((row, m, c) for (row, m), c in terms.items())


def monomials_of_degree(ring, d):
    """Exponent tuples of weighted degree d."""
    w = ring.weights
    return [m for m in product(*(range(d // wi + 1) for wi in w))
            if sum(e * wi for e, wi in zip(m, w)) == d]


def colength(gb):
    """F_p-dimension of S/J for the ideal basis ``gb`` of J: the engine's
    count of the monomials outside in(J)."""
    return standard_monomials(gb.leads_by_position()[0],
                              len(gb.ring.variables))


def box_standard_monomials(gb):
    """Reference for ``colength``: the monomials outside in(J), listed from
    the box that the pure-power leads bound, or None when some variable has
    no pure power among them (infinitely many)."""
    leads = gb.leads_by_position()[0]
    if any(not any(m) for m in leads):
        return []
    bounds = [min((m[i] for m in leads if m[i] == sum(m)), default=0)
              for i in range(len(gb.ring.variables))]
    if not all(bounds):
        return None
    return [e for e in product(*(range(b) for b in bounds))
            if not any(mono_divides(m, e) for m in leads)]


# session scope so ring-level caches (ideal bases, resolutions, pushforwards)
# persist across tests
@pytest.fixture(scope="session")
def model_a():
    return load_model("a.json")


@pytest.fixture(scope="session")
def model_b():
    return load_model("b.json")


@pytest.fixture(scope="session")
def model_c():
    return load_model("c.json")


@pytest.fixture(scope="session")
def model_d():
    return load_model("d.json")


@pytest.fixture(scope="session")
def model_e():
    return load_model("e.json")


@pytest.fixture(scope="session")
def corpus(model_a, model_b, model_c, model_d, model_e):
    return {"A": model_a, "B": model_b, "C": model_c, "D": model_d,
            "E": model_e}


@pytest.fixture(scope="session")
def budget():
    # the default budget, passed explicitly through the budget arguments
    return DEFAULT_BUDGET
