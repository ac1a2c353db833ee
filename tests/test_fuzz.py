"""Fuzzing of the input boundaries: catalog and config documents.

Number slots draw the values that trip naive parsers — bools, strings,
NaN, ±inf, negatives, 10**30 and 10**400 (beyond the float range) — next
to ordinary numbers, and now and then every document level gains an
unknown key.  Only a ``TieredMnlError`` may escape the library, whether
a document or a Python caller builds a catalog or config, a catalog
that parses solves exactly to the oracle's value, a config that parses
survives ``config_to_dict`` unchanged, and ``tieredmnl solve``, ``tieredmnl
simulate`` and ``tieredmnl experiment`` exit 0 or 1.  A config that parses
is run only when it is small (horizon <= 200, at most 20 products), so the
whole module runs in a few seconds.  Examples are derandomized so every run
draws the same cases.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tieredmnl.cli import main
from tieredmnl.errors import TieredMnlError
from tieredmnl.model import Catalog, Product, catalog_from_dict
from tieredmnl.optimizer import brute_force_optimal, solve_two_tier
from tieredmnl.simulator import (
    ExperimentConfig,
    PolicySpec,
    ProductGroup,
    config_from_dict,
    config_to_dict,
)

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ODD_NUMBERS = st.sampled_from(
    [True, False, "1", "x", math.nan, math.inf, -math.inf, -1, -0.5, 10**30, 10**400, None]
)


def slot(ordinary):
    """A value from ``ordinary`` eleven times in twelve, else an odd one, so
    most documents parse and the odd values meet every later stage."""
    return st.sampled_from([ordinary] * 11 + [ODD_NUMBERS]).flatmap(lambda draw: draw)


def ints(lo, hi):
    return slot(st.integers(lo, hi))


def reals(lo, hi):
    return slot(st.floats(lo, hi))


def text(*ordinary):
    return slot(st.sampled_from(ordinary))


def with_unknown_key(doc_strategy):
    """Documents from ``doc_strategy``, one in sixteen with a key no level
    accepts."""
    return st.tuples(doc_strategy, st.sampled_from([False] * 15 + [True])).map(
        lambda pair: {**pair[0], "bogus": 1} if pair[1] else pair[0]
    )


IDS = st.one_of(st.integers(0, 6), st.sampled_from(["a", "b", "c", "d"]))


@st.composite
def catalog_docs(draw):
    products = draw(
        st.lists(
            with_unknown_key(
                st.fixed_dictionaries(
                    {"id": slot(IDS), "profit": reals(0, 5), "valuation": reals(0, 1)},
                    optional={"launch_time": ints(0, 3)},
                )
            ),
            max_size=6,
            unique_by=lambda p: repr(p["id"]),
        )
    )
    doc = draw(with_unknown_key(st.just({"products": products})))
    ids = st.sampled_from([p["id"] for p in products] or ["a"])
    for key in ("candidates_tier1", "candidates_tier2"):
        if draw(st.booleans()):
            doc[key] = draw(st.lists(slot(ids), max_size=6))
    return doc


@given(doc=catalog_docs())
@settings(FUZZ, max_examples=200)
def test_catalog_documents_fail_only_with_package_errors(doc):
    """A document that parses is also solved exactly, to the oracle's value
    (at most 6 products, within ``brute_force_optimal``'s cap), and
    ``tieredmnl solve`` on it exits 0 or 1."""
    try:
        catalog = catalog_from_dict(doc)
        solve_two_tier(catalog, exact=False)
        exact = solve_two_tier(catalog).expected_profit
        oracle = brute_force_optimal(catalog).expected_profit
        assert math.isclose(exact, oracle, rel_tol=1e-9, abs_tol=1e-9), (exact, oracle)
    except TieredMnlError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["solve", str(path)]) in (0, 1)


def _support(lo, hi):
    return slot(st.lists(reals(lo, hi), min_size=2, max_size=2).map(sorted_if_numbers))


def sorted_if_numbers(pair):
    return sorted(pair) if all(type(x) is float for x in pair) else pair


POLICY_OPTIONS = {
    "oracle": {},
    "ucb_tiered": {"min_epochs": ints(0, 5), "confidence_scale": reals(0, 5)},
    "random_tier": {"min_epochs": ints(0, 5), "confidence_scale": reals(0, 5)},
    "explore_then_exploit": {"gamma": reals(0, 40)},
}


@st.composite
def policy_docs(draw):
    name = draw(st.sampled_from(sorted(POLICY_OPTIONS)))
    options = draw(st.fixed_dictionaries({}, optional=POLICY_OPTIONS[name]))
    doc = {"name": name, "options": options}
    if draw(st.booleans()):
        doc["label"] = draw(text("learner", "a b/c", ""))
    return draw(with_unknown_key(st.just(doc)))


@st.composite
def config_docs(draw):
    doc = {
        "schema": 1,
        "label": draw(text("fuzz", "a b/c", "")),
        "horizon": draw(ints(1, 200)),
        "policies": draw(st.lists(policy_docs(), min_size=1, max_size=2)),
        "replications": draw(ints(1, 3)),
        "base_seed": draw(ints(0, 1000)),
        "benchmark": draw(text("launched", "full", "static")),
    }
    if draw(st.sampled_from(["catalog", "groups"])) == "groups":
        doc["groups"] = draw(
            st.lists(
                with_unknown_key(
                    st.fixed_dictionaries(
                        {"count": ints(1, 8), "profit": _support(0, 5),
                         "valuation": _support(0, 1)},
                        optional={
                            "launch_time": ints(0, 50),
                            "launch_spacing": ints(0, 20),
                            "tiers": st.lists(ints(1, 2), min_size=1, max_size=2, unique=True),
                            "valuation_known": slot(st.booleans()),
                        },
                    )
                ),
                min_size=1,
                max_size=3,
            )
        )
        ids = ["p000", "p001", "nope"]
    else:
        catalog = draw(catalog_docs())
        doc["catalog"] = catalog
        ids = [p["id"] for p in catalog["products"]] or ["a"]
    if draw(st.sampled_from([False, True])):
        doc["known_products"] = draw(st.lists(slot(st.sampled_from(ids)), min_size=1, max_size=2))
    return draw(with_unknown_key(st.just(doc)))


def _small(config) -> bool:
    if config.catalog is not None:
        n = len(config.catalog.products)
    else:
        n = sum(g.count for g in config.groups)
    return config.horizon <= 200 and n <= 20


@given(doc=config_docs())
@settings(FUZZ, max_examples=200)
def test_config_documents_exit_0_or_1(doc):
    """A config that parses is written back unchanged, and ``tieredmnl
    simulate`` and ``tieredmnl experiment`` on it exit 0 or 1."""
    try:
        config = config_from_dict(doc)
    except TieredMnlError:
        runnable = True  # the CLI must report the same error as exit code 1
    else:
        assert config_from_dict(config_to_dict(config)) == config
        runnable = _small(config)
    if not runnable:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = str(Path(tmp) / "out")
        assert main(["simulate", str(path), "--out", out]) in (0, 1)
        assert main(["experiment", str(path), "--reps", "1", "--out", out]) in (0, 1)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

# Valid arguments of every dataclass a document builds, one per field.
VALID_ARGUMENTS = {
    "Product": (Product, {"id": "a", "profit": 1.0, "valuation": 0.5, "launch_time": 0}),
    "Catalog": (
        Catalog,
        {"products": (Product("a", 1.0, 0.5),), "candidates_tier1": ["a"], "candidates_tier2": None},
    ),
    "ProductGroup": (
        ProductGroup,
        {"count": 2, "profit": (0.0, 1.0), "valuation": (0.0, 0.5), "launch_time": 0,
         "launch_spacing": 0, "tiers": (1, 2), "valuation_known": False},
    ),
    "PolicySpec": (PolicySpec, {"name": "oracle", "options": {}, "label": None}),
    "ExperimentConfig": (
        ExperimentConfig,
        {"label": "x", "horizon": 10, "policies": (PolicySpec("oracle"),),
         "groups": (ProductGroup(2, (0.0, 1.0), (0.0, 0.5)),), "catalog": None,
         "known_products": (), "replications": 1, "base_seed": 0, "benchmark": "launched"},
    ),
}


@given(which=st.sampled_from(sorted(VALID_ARGUMENTS)), data=st.data())
@settings(FUZZ, max_examples=300)
def test_python_arguments_fail_only_with_package_errors(which, data):
    """Each dataclass a document builds, given valid arguments but one field
    replaced by any JSON value, is built or refused with a TieredMnlError."""
    cls, arguments = VALID_ARGUMENTS[which]
    field = data.draw(st.sampled_from(sorted(arguments)))
    try:
        cls(**{**arguments, field: data.draw(JSON_VALUES)})
    except TieredMnlError:
        pass
