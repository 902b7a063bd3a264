"""The one cache layer: every memo of the package is bounded and registered,
so ``clear_caches`` empties them all and ``clear_sphere_measure_cache``
empties sigma's alone."""

import importlib
import pkgutil

import hgineq
from hgineq import (
    CorpusSpec,
    ckn_report,
    clear_caches,
    clear_sphere_measure_cache,
    default_norm,
    generic_field,
    hardy_report,
    l2_identity_report,
    make_corpus,
    parse_group,
    sharpness_scan,
    sphere_measure,
)
from hgineq.memo import Memo
from hgineq.quadrature import radial_log_nodes


def _module_state():
    """``(memos, dicts)``: every ``Memo`` and ``lru_cache`` wrapper on the
    package's modules, and every other module-level dict, as
    ``(module.name, object)`` pairs, each object once."""
    memos, dicts = {}, {}
    for info in pkgutil.iter_modules(hgineq.__path__):
        if info.name == "__main__":  # runs the command line on import
            continue
        module = importlib.import_module(f"hgineq.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, Memo) or hasattr(value, "cache_info"):
                memos.setdefault(id(value), (f"{info.name}.{name}", value))
            elif isinstance(value, dict) and not name.startswith("__"):
                dicts.setdefault(id(value), (f"{info.name}.{name}", value))
    return list(memos.values()), list(dicts.values())


def _size(memo):
    return len(memo) if isinstance(memo, Memo) else memo.cache_info().currsize


def _warm_every_route():
    """A one-node report, a product field, an opaque field and its orbit
    finite differences, a quasi-radial field on a sphere pass, a scan, sigma
    and the radial node rule."""
    group = parse_group("heis1")
    norm = default_norm(group)
    radial, product = (make_corpus(group, norm, CorpusSpec(count=1, seed=3, radial_fraction=f))[0]
                       for f in (1.0, 0.0))
    ckn_report(group, norm, radial, 2.0, 0.5, 1.0)
    ckn_report(group, norm, product, 2.0, 0.5, 1.0)
    hardy_report(group, norm, generic_field(product.values, product.support, norm=norm), 2.0)
    l2_identity_report(group, norm, radial, 0.0, 1, mode="orbit_fd")
    sharpness_scan(group, norm, 2.0, 0.0, 1.0)
    r2 = parse_group("r:2")
    sphere_measure(r2, default_norm(r2))
    radial_log_nodes(1.0, 2.0, 8, 2)


def test_clear_caches_empties_every_memo_and_no_plain_dict_grows():
    clear_caches()
    memos, dicts = _module_state()
    sizes = {name: len(d) for name, d in dicts}
    _warm_every_route()
    assert [name for name, memo in memos if _size(memo) == 0] == []
    assert {name: len(d) for name, d in dicts} == sizes
    for name, memo in memos:
        assert (memo.size if isinstance(memo, Memo) else memo.cache_info().maxsize) > 0, name
    clear_caches()
    assert [name for name, memo in memos if _size(memo)] == []


def test_clearing_sigma_leaves_every_other_memo_warm():
    clear_caches()
    _warm_every_route()
    memos, _ = _module_state()

    def entries():
        return {name: [(key, id(entry)) for key, entry in memo.items()]
                if isinstance(memo, Memo) else _size(memo) for name, memo in memos}

    before = entries()
    clear_sphere_measure_cache()
    after = entries()
    assert before.pop("calculus._sphere_measure") > 0 == after.pop("calculus._sphere_measure")
    assert after == before


def test_a_memo_keeps_its_newest_entries_and_a_hit_makes_one_newest():
    memo = Memo(2)
    assert memo.keep("a", 1) == 1 and memo.keep("b", 2) == 2
    assert memo.hit("a") == 1 and memo.hit("c") is None
    memo.keep("c", 3)  # drops "b", the oldest since "a" was hit
    assert list(memo.items()) == [("a", 1), ("c", 3)]
