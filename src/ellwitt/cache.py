"""Content-addressed on-disk cache for computed report sections.

Entries are keyed by (schema_version, kind, algorithm version,
parameters) and carry a sha256 of their canonical payload; a hit is
byte-identical to recomputation by construction.  The algorithm version
is part of the file name and of the stored key, so an entry that older
code computed is never served.  A corrupt entry (bad UTF-8 or JSON, too
deep to parse, not an object, checksum or key mismatch, a payload not
of its kind's PAYLOAD_SHAPES) is discarded with a warning and
recomputed.  Writes are atomic (temp then rename).
Neither load nor store raises: a cache the file system refuses costs a
warning, not the result.  Paths are plain strings through os and
os.path: pathlib and tempfile would add their imports to every command.
An entry is written by `report.canonical_json` and read by `_json`'s
scanner, the C half of `json.loads`: a cache hit loads `_json` but not
the `json` package, and a miss or an uncached command neither.  Only an
entry the scanner cannot read whole goes on to `json.loads`.
"""

import os
import sys
from types import SimpleNamespace

from .report import SCHEMA_VERSION, canonical_json

ENV_CACHE_DIR = "ELLWITT_CACHE_DIR"

#: Version of the computation behind each cached kind; bump a kind's
#: entry whenever the way its payload is computed changes.  Version 2:
#: the supersingular j-set comes from the Cantor-Zassenhaus root finder.
ALGORITHM_VERSIONS = {"ss": 2, "lift": 2}

#: Each kind's payload as a cold run writes it: an object is {key: shape}
#: with exactly those keys, a list [the shape of each element], anything
#: else the JSON value's exact type (so a bool is not an int).
PAYLOAD_SHAPES = {
    "ss": {"prime": int, "sigma": int, "all_rational": bool,
           "j_values": [[int]], "ss_poly": [int], "ss_poly_str": str,
           "point_count_checked": bool},
    "lift": {"prime": int, "precision": int, "digit_order": str,
             "modulus_g1": str, "modulus_g0": str,
             "coeffs": [{"a": str, "b": str}], "frobenius_fixed": bool,
             "reduces_to_ss_poly": bool},
}


def _fits(value, shape) -> bool:
    """Whether a JSON value has the shape (see PAYLOAD_SHAPES)."""
    if isinstance(shape, dict):
        return (isinstance(value, dict) and value.keys() == shape.keys()
                and all(_fits(value[k], v) for k, v in shape.items()))
    if isinstance(shape, list):
        return (isinstance(value, list)
                and all(_fits(v, shape[0]) for v in value))
    return type(value) is shape


def cache_dir() -> str:
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "ellwitt")


def _versioned(kind: str, key: dict) -> dict:
    return {**key, "algo": ALGORITHM_VERSIONS[kind]}


def _entry_path(kind: str, key: dict) -> str:
    parts = [kind] + [f"{k}{key[k]}" for k in sorted(key)]
    return os.path.join(cache_dir(), "_".join(parts) + ".json")


def _checksum(payload: dict) -> str:
    # The interpreter's own SHA-256 (_sha2 from Python 3.12, _sha256
    # before): hashlib's is OpenSSL's, whose load adds about 4 ms and
    # 3.5 MB to a fresh process.  hashlib runs only on builds that leave
    # the built-in module out; every route gives the same digest.
    # Imported on use, as uncached commands never checksum.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(canonical_json(payload).encode()).hexdigest()


def _parse(text: str):
    """json.loads(text), read by `_json`'s scanner, the C half of
    json.loads, set as json.loads sets it (strict strings, float and
    int, NaN and +-Infinity, no hooks) with JSON whitespace skipped on
    both sides.  A well-formed entry so loads `_json` but not the `json`
    package and the `re` its decoder needs.  Anything else, a build
    without `_json`, a scanner error or trailing data, is read again by
    json.loads, which raises as it always does: the scanner reports a
    syntax error through `json.decoder`, and before that is imported,
    as on CPython 3.11, it raises SystemError instead."""
    space = " \t\n\r"  # JSON's whitespace
    try:
        from _json import make_scanner
        constants = {"NaN": float("nan"), "Infinity": float("inf"),
                     "-Infinity": float("-inf")}
        scan = make_scanner(SimpleNamespace(
            strict=True, object_hook=None, object_pairs_hook=None,
            parse_float=float, parse_int=int,
            parse_constant=constants.__getitem__))
        value, end = scan(text, len(text) - len(text.lstrip(space)))
        if not text[end:].lstrip(space):
            return value
    except Exception:
        pass
    from json import loads
    return loads(text)


def load(kind: str, key: dict):
    """The cached payload for (kind, key), or None on miss/corruption.

    An entry that cannot be read (an OSError) is a miss: the store that
    follows replaces it, or warns that it cannot."""
    key = _versioned(kind, key)
    path = _entry_path(kind, key)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    try:  # invalid UTF-8 is a ValueError; JSON nested too deep recurses
        entry = _parse(data.decode())
        ok = (isinstance(entry, dict)
              and entry.get("schema_version") == SCHEMA_VERSION
              and entry.get("key") == key
              and entry.get("sha256") == _checksum(entry["payload"])
              and _fits(entry["payload"], PAYLOAD_SHAPES[kind]))
    except (ValueError, KeyError, TypeError, RecursionError):
        ok = False
    if not ok:
        print(f"warning: discarding corrupt cache entry {path}",
              file=sys.stderr)
        try:
            os.unlink(path)
        except OSError:
            pass
        return None
    return entry["payload"]


def store(kind: str, key: dict, payload: dict) -> None:
    """Write the entry atomically.  An OSError (say, a cache dir that is
    a regular file) prints one warning and leaves the result uncached."""
    key = _versioned(kind, key)
    path = _entry_path(kind, key)
    entry = {
        "schema_version": SCHEMA_VERSION,
        "key": key,
        "sha256": _checksum(payload),
        "payload": payload,
    }
    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # a name no other writer picks; O_EXCL refuses an existing file
        name = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        tmp = name
        with os.fdopen(fd, "w") as fh:
            fh.write(canonical_json(entry))
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        print(f"warning: cannot write cache entry {path}: "
              f"{exc.strerror or exc}", file=sys.stderr)
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
