"""The result records.  `arith.record` builds each as a tuple type with
one read-only property per field, without the constructor that
`collections.namedtuple` compiles by eval at import, and each must
behave as the namedtuple with the same fields that it replaced in
construction, `_replace`, equality, hash, unpacking, attribute
assignment, repr and `__module__`.  A record has no `_fields`,
`_asdict` or `_make`, and cannot be copied or pickled: nothing uses
them."""

import sys
from collections import namedtuple

import pytest

from ellwitt import cli, formalgroup, modforms, sslocus
from conftest import fresh_python
from test_command_sweep import SWEEP
from test_layering import _modules

#: Every record type, with the fields and defaults of its namedtuple.
RECORDS = (
    (cli.Flag, "default lo hi", ()),
    (cli.Command, "help flags section build show", (None,) * 4),
    (formalgroup.DeligneReport, "curves_checked supersingular_curves", ()),
    (formalgroup.GLCurveResult, "j a4 a6 v2 predicted", ()),
    (formalgroup.GLReport, "sign entries", ()),
    (modforms.HasseDecomposition, "m delta eps", ()),
    (sslocus.DeuringPass, "lambdas j_set ss_poly", ()),
    (sslocus.Route, "name max_p jset run", ()),
    (sslocus.SSLocus, "j_values ss_poly sigma all_rational routes", ()),
)


def test_every_record_type_is_listed():
    found = {c for m in _modules() for c in vars(m).values()
             if isinstance(c, type) and issubclass(c, tuple)
             and c.__module__.startswith("ellwitt")}
    assert found == {cls for cls, _, _ in RECORDS}


def _outcome(make):
    """make()'s value, or the class of the exception it raises."""
    try:
        return make()
    except Exception as exc:  # the class is the outcome
        return type(exc)


@pytest.mark.parametrize("cls, fields, defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_every_record_behaves_like_its_namedtuple(cls, fields, defaults):
    old = namedtuple(cls.__name__, fields, defaults=defaults)
    names = fields.split()
    values = tuple(range(10, 10 + len(names)))
    new = cls(*values)
    assert (type(new), new, hash(new)) == (cls, values, hash(values))
    assert new == old(*values) and isinstance(new, tuple)
    assert [getattr(new, f) for f in names] == list(values)
    first, *rest = new
    assert (first, *rest) == values
    assert cls(**dict(zip(names, values))) == values
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == values

    # every way in and out of the namedtuple's constructor and _replace
    calls = [(), values[:-1], values + (0,), values[:1] + values]
    calls = [(args, {}) for args in calls]
    calls += [((), dict(zip(names[:k], values))) for k in range(len(names))]
    calls += [(values, {"unknown": 1}), (values[1:], {names[1]: 0})]
    for args, kwargs in calls:
        assert _outcome(lambda: cls(*args, **kwargs)) == \
            _outcome(lambda: old(*args, **kwargs)), (args, kwargs)
    for f in names:
        changed = new._replace(**{f: -1})
        assert type(changed) is cls
        assert changed == old(*values)._replace(**{f: -1})
    assert new._replace() == new
    with pytest.raises(ValueError):
        new._replace(unknown=1)
    with pytest.raises(AttributeError):
        setattr(new, names[0], 0)
    with pytest.raises(AttributeError):
        new.unknown = 0
    assert new == values

    assert repr(new) == repr(old(*values))
    assert getattr(sys.modules[cls.__module__], cls.__name__) is cls


def test_command_defaults():
    assert cli.Command("help") == ("help", None, None, None, None)
    assert cli.Command("help", build=len) == ("help", None, None, len, None)
    flag = cli.COMMANDS[("ss",)].flags["prime"]
    assert (flag.default, flag.lo) == (None, 5)


def test_no_command_builds_a_namedtuple(tmp_path):
    # in a fresh -S process whose collections.namedtuple raises, the
    # package imports and every leaf of the sweep runs, as text and as
    # --json (ss and lift then from the cache); functools, which builds
    # its own namedtuple at import, loads first
    lines = [f"{' '.join(w)} {flags}{json}" for w, flags in SWEEP.items()
             for json in ("", " --json")]
    code = ("import collections, contextlib, functools, io\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError(f'namedtuple{args}')\n"
            "collections.namedtuple = refuse\n"
            "import ellwitt.cli\n"
            "codes = []\n"
            f"for line in {lines!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(ellwitt.cli.main(line.split()))\n"
            "print(codes)\n")
    proc = fresh_python(code, site=False, ELLWITT_CACHE_DIR=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[0] * len(lines)}\n"
    assert sorted(p.name.split("_")[0] for p in tmp_path.glob("*.json")) \
        == ["lift", "ss"]
