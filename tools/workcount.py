"""Count the bytecode the Hopf pipeline executes, and compare two counts.

usage: python tools/workcount.py --src DIR > counts.jsonl
       python tools/workcount.py --compare A.jsonl B.jsonl

``--src`` imports hemohopf from DIR, the ``src`` directory of a tree, as
tools/identity.py does, and takes identity.py's inputs and bracket: the
first 2,000 seed-1 frontier draws and the first 500 seed-1 stability configs
of perfbench/workloads.py.  It writes one JSON line ``{"region", "count",
"value"}`` per count, over five regions:

- frontier: the 2,000 frontier operations, `workloads.frontier_values` on
  each draw;
- bracketed-0.9: `find_hopf_r` on identity.py's bracket (0.9 r*, min(1.1 r*,
  0.999 r_max)) of every draw `hopf_from_pqk` locates; this bracket is
  symmetric about r* for most draws, which favours the secant step;
- bracketed-0.93: the same on (0.93 r*, min(1.1 r*, 0.999 r_max));
- locate: `find_hopf_r` without a bracket on the 500 stability configs;
- normal-form: `criticality_report` on the first 2,000 HopfPoints that
  `hopf_from_pqk` locates on seed-1 frontier draws, so the normal form's
  opcodes per call are read apart from the frontier operation's.

Each region gives its calls, its opcodes, its D evaluations (calls of
`hopf._mismatch`) and the last two per call, then, per function executed,
``calls:NAME`` and ``self_opcodes:NAME``.

Method: the inputs, the located points, the brackets and the parameters are
built before counting starts.  Then ``sys.settrace`` is set, and every frame
entered from then on gets ``f_trace_opcodes = True``; each opcode event is
counted against the code object of its frame, and each call event (a
generator resumed included) as one call.  The driving loop runs in a frame
entered before the trace was set, so its own opcodes are not counted.  A call
of a C function (``math.exp``, a builtin) counts as the opcodes that make it,
and the compiled simulation kernel as none: a change that moves work into C
reads as free, so counts go beside timings and never replace them.

``--compare`` prints every count of A and B with the ratio B / A, and exits 1
unless every count is identical and present in both.
"""

import argparse
import json
import sys
from collections import Counter
from itertools import islice

import identity

NORMAL_FORM_CASES = 2000


class OpcodeCount:
    """Calls and self opcodes per code object, while `trace` runs."""

    def __init__(self):
        self.calls, self.opcodes, self.names = Counter(), Counter(), {}

    def _opcode(self, frame, event, arg):
        if event == "opcode":
            self.opcodes[frame.f_code] += 1
        return self._opcode

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code not in self.names:
            self.names[code] = f"{frame.f_globals.get('__name__')}.{code.co_qualname}"
        self.calls[code] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._opcode

    def trace(self, fn, items):
        """Call fn(*item) for each item, counted; a refusal is the program's
        answer and is counted too.  Returns the number of calls."""
        sys.settrace(self._call)
        try:
            for item in items:
                try:
                    fn(*item)
                except Exception:  # the work up to a refusal counts, as identity.py records it
                    pass
        finally:
            sys.settrace(None)
        return len(items)

    def by_name(self):
        calls, opcodes = Counter(), Counter()
        for code, name in self.names.items():
            calls[name] += self.calls[code]
            opcodes[name] += self.opcodes[code]
        return calls, opcodes


def region(name, fn, items):
    """The count lines of one region: fn called on each of `items`."""
    counter = OpcodeCount()
    calls = counter.trace(fn, items)
    by_calls, by_opcodes = counter.by_name()
    opcodes = sum(by_opcodes.values())
    d_evals = by_calls["hemohopf.hopf._mismatch"]
    yield name, "calls", calls
    yield name, "opcodes", opcodes
    yield name, "d_evals", d_evals
    yield name, "opcodes_per_call", opcodes / calls
    yield name, "d_evals_per_call", d_evals / calls
    for function in sorted(by_calls):
        yield name, f"calls:{function}", by_calls[function]
        yield name, f"self_opcodes:{function}", by_opcodes[function]


def record(src):
    hemohopf, workloads = identity.load(src)
    hopf = hemohopf.hopf
    draws, configs = identity.inputs(workloads)
    located = list(_located(hemohopf, draws))
    points = list(islice(_located(hemohopf, workloads.frontier_draws(1)), NORMAL_FORM_CASES))
    yield from region("frontier", workloads.frontier_values,
                      [(hemohopf, draw) for draw in draws])
    for low in (0.9, 0.93):
        yield from region(f"bracketed-{low}", hopf.find_hopf_r,
                          [(hp.params, identity.frontier_bracket(hemohopf, hp, low))
                           for hp in located])
    yield from region("locate", hopf.find_hopf_r,
                      [(identity.stability_params(hemohopf, config),) for config in configs])
    yield from region("normal-form", hopf.criticality_report, [(hp,) for hp in points])


def _located(hemohopf, draws):
    """The HopfPoints `hopf_from_pqk` locates on `draws`, in their order."""
    for draw in draws:
        try:
            yield hemohopf.hopf.hopf_from_pqk(*draw)
        except hemohopf.errors.ParameterError:
            pass


def _load(path):
    with open(path) as fh:
        return {(line["region"], line["count"]): line["value"] for line in map(json.loads, fh)}


def compare(path_a, path_b):
    a, b = _load(path_a), _load(path_b)
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        va, vb = a.get(key), b.get(key)
        ratio = f"{vb / va:.4f}" if va and vb is not None else "-"
        same = va == vb and key in a and key in b
        differ += not same
        print(f"{key[0]:15} {key[1]:60} {va!s:>14} {vb!s:>14} {ratio:>8}"
              f"{'' if same else '  *'}")
    print(f"{len(a.keys() | b.keys()) - differ} of {len(a.keys() | b.keys())} counts identical")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--src", metavar="DIR", help="count the tree whose src is DIR")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two counts")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for name, count, value in record(args.src):
        print(json.dumps({"region": name, "count": count, "value": value}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
