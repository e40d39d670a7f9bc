"""Characterization of the constructions: one sha256 of `to_json()` per
case, checked against `tests/golden/constructions.json`.

The grid covers the truncation builders, the predictions and the preset
claims.  A case that raises records the error class instead of a digest.

    PYTHONPATH=src python tests/test_constructions.py [--write]

lists the case ids whose digest differs from the golden file (added and
dropped cases included) and exits 1 if there are any.  Only with
`--write`, after a deliberate change of output, does it rewrite the file.
"""

import hashlib
import json
import pathlib
import sys

from atomcat import generators, predictor, terms
from atomcat.errors import AtomcatError
from atomcat.harness import all_posets
from atomcat.quiver import TruncationSpec, make_quiver
from strategies import chain

GOLDEN = pathlib.Path(__file__).parent / "golden" / "constructions.json"

GENERAL_WINDOWS = ((0, 0), (0, 1), (-1, 1), (0, 2))
NOATOM_WINDOWS = (None, (0, 0), (0, 3), (-2, 2), (1, 4))


def _realization_json(res):
    return {"spectrum": res.spectrum.to_json(), "witness": res.witness,
            "pre_quotient": res.pre_quotient.to_json()}


def _noatom_json(pred):
    return {"pre_spectrum": pred.pre_spectrum.to_json(),
            "post_quotient_empty": pred.post_quotient_empty,
            "nonzero_witness": pred.nonzero_witness,
            "absorption": pred.absorption}


def _preset_prediction_json(name, depth):
    sym = predictor.predict_preset(name, depth)
    return {"symbolic": sym.to_json(),
            "claims": predictor.check_preset_claims(name, sym, depth)}


def _union_json(blocks, names):
    return generators.truncate(terms.union_term(blocks, names)) \
        .quiver.to_json()


def _small_blocks():
    a = make_quiver(["x", "y"], ["c", "d"],
                    [("x", "x", "c"), ("x", "y", "d")])
    b = make_quiver(["z"], ["c"], [("z", "z", "c", 2)])
    return a, b


def cases():
    """(case id, thunk returning a JSON-able value), in a fixed order."""
    posets = [(f"n{n}.{i}", p) for n in range(1, 5)
              for i, p in enumerate(all_posets(n))]
    for pid, p in posets:
        for depth in range(3):
            for window in GENERAL_WINDOWS:
                trunc = TruncationSpec(depth=depth, ladder_range=window)
                yield (f"general/{pid}/d{depth}/w{window}",
                       lambda p=p, t=trunc:
                       generators.gen_realization_general(p, t).to_json())
        for depth in range(1, 4):
            trunc = TruncationSpec(depth=depth)
            yield (f"acc/{pid}/d{depth}",
                   lambda p=p, t=trunc:
                   generators.gen_realization_acc(p, t).to_json())
        for mode in ("acc", "general"):
            yield (f"predict-realization/{pid}/{mode}",
                   lambda p=p, m=mode:
                   _realization_json(predictor.predict_realization(p, m)))
    for depth in range(5):
        for window in NOATOM_WINDOWS:
            trunc = TruncationSpec(depth=depth, ladder_range=window)
            yield (f"noatom/d{depth}/w{window}",
                   lambda t=trunc: generators.gen_noatom(t).to_json())
            yield (f"predict-noatom/d{depth}/w{window}",
                   lambda t=trunc: _noatom_json(predictor.predict_noatom(t)))
    # depth 5 is left out: no-dcc alone has 2 million arrows there
    for name in terms.PRESET_NAMES:
        for depth in range(1, 5):
            yield (f"preset/{name}/d{depth}",
                   lambda n=name, d=depth: generators.preset(n, d).to_json())
            yield (f"predict-preset/{name}/d{depth}",
                   lambda n=name, d=depth: _preset_prediction_json(n, d))
    yield "preset/unknown/d0", lambda: generators.preset("nope", 0)
    yield "preset/unknown/d1", lambda: generators.preset("nope", 1)
    yield ("general/empty-window",
           lambda: generators.gen_realization_general(
               posets[0][1], TruncationSpec(depth=1, ladder_range=(1, 0))))
    yield ("noatom/negative-window",
           lambda: generators.gen_noatom(
               TruncationSpec(depth=1, ladder_range=(-3, -1))))
    a, b = _small_blocks()
    yield "union/a,b", lambda: _union_json([a, b], [0, 1])
    yield "union/a,a/named", lambda: _union_json([a, a], ["l", "r"])
    yield "union/empty", lambda: _union_json([], [])
    yield "chain/a,b", lambda: chain([a, b]).to_json()
    yield "chain/b,a,b", lambda: chain([b, a, b]).to_json()


def fingerprint(thunk):
    try:
        data = thunk()
    except (AtomcatError, ValueError) as err:  # refusals are behaviour too
        return f"error:{type(err).__name__}"
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def fingerprints():
    return {case_id: fingerprint(thunk) for case_id, thunk in cases()}


def test_constructions_match_golden_fingerprints():
    want = json.loads(GOLDEN.read_text())
    got = fingerprints()
    assert list(got) == list(want)
    changed = [k for k in want if got[k] != want[k]]
    assert not changed, changed[:10]


def main(argv):
    want = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    got = fingerprints()
    changed = [k for k in {**want, **got} if want.get(k) != got.get(k)]
    for case_id in changed:
        print(case_id)
    print(f"{len(changed)} of {len(got)} digests differ", file=sys.stderr)
    if "--write" in argv:
        GOLDEN.write_text(json.dumps(got, indent=1) + "\n")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
