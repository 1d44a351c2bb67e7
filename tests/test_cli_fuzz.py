"""Seeded fuzz of the command line: every input ends in one envelope.

``cli.run`` runs in process on about a thousand drawn inputs: argv for the
eleven subcommands over ten family configs, with labels and elements
(``0`` and unit-only ones among them), star words, parameter lists,
witness files (label lists and cylinder descriptors, with and without
``truncation_radius``) and family configs mutated from the keys of
``docs/family_config.schema.json``.  Each input goes through
``conftest.run_cli``, the one console contract the CLI tests share: exactly
one strict JSON envelope, exit 0, 1 or 2 as its ``kind`` says (none is
``internal``), its ``inputs`` echoed, no traceback on stderr, within 10 s.

Sizes stay small so that every input is bounded: depths at most 8, search
budgets at most 3, radii at most 4, at most three terms per element and
labels of at most four syllables.  ``moments --jsonl`` is left out of the
draw; the contract's check of its JSON lines runs in ``test_cli`` and on
the ``moments_ao3_jsonl`` golden.
"""

import json
import math
import random

import pytest

from conftest import CONFIGS, run_cli

SEED = 20261020
ARGV_DRAWS = 700
CONFIG_DRAWS = 300

# name: (family config, unit label, other valid labels)
FAMILIES = {
    "ao3": (CONFIGS["ao3"], "r1", ["r2", "r3", "r4"]),
    "ao2q": (CONFIGS["ao2q"], "r1", ["r2", "r3", "r4"]),
    "aut4": (CONFIGS["aut4"], "s0", ["s1", "s2", "s3"]),
    "au2": (CONFIGS["au2"], "e", ["a", "b", "ab", "ba"]),
    "f2": (CONFIGS["f2"], "e", ["s", "s^-1", "t", "t^-1", "s t^-1", "s^2"]),
    "zz3": (CONFIGS["zz3-gh"], "e", ["g", "g^-1", "h", "h^2", "g h", "h g^-1"]),
    "z3": (CONFIGS["z3"], "e", ["g1", "g1^2"]),
    "z": (CONFIGS["z"], "e", ["g1", "g1^-1", "g1^2"]),
    "z^2": (CONFIGS["z2"], "e", ["g1", "g2^-1", "g1 g2", "g1^2"]),
    "z2*z2": (CONFIGS["z2*z2"], "e", ["a", "b", "a b", "b a"]),
}
BAD_LABELS = ["", " ", "0", "1", "r0", "s-1", "x", "e e", "g1^", "^2", "s^0", "r99",
              "s t s^-1 t^-1", "aa", "g1^100", "a^3", "h^3", "2*r2"]
PARAMS = ["q", "q^-1", "2^1/2", "2^-1/2", "3", "1", "1/2", "x^2*y", "q^1/0", "", "-1",
          "1000003", "0"]
COMMANDS = ["decompose", "moments", "distance", "ball", "growth", "amenable",
            "list-invariant", "modular-spectrum", "graph", "powers-check", "powers-search"]
NUMBERS = [True, False, None, 0, -1, 1, 2, 3, 4, 5, 1.5, math.nan, math.inf, 10 ** 30,
           "3", "q", [], [1], {}, {"x": 1}]


class Draw:
    """The drawn pieces of one input, all from one seeded generator."""

    def __init__(self, rng, tmp_path):
        self.rng = rng
        self.tmp_path = tmp_path
        self.files = 0

    def path(self, suffix):
        self.files += 1
        return str(self.tmp_path / f"in{self.files}{suffix}")

    def write(self, data, suffix=".json"):
        path = self.path(suffix)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data if isinstance(data, str) else json.dumps(data))
        return path

    def label(self, family):
        _, unit, labels = FAMILIES[family]
        pick = self.rng.random()
        if pick < 0.05:
            return self.rng.choice(BAD_LABELS)
        return unit if pick < 0.2 else self.rng.choice(labels)

    def element(self, family, unit_term=0.0):
        """Up to three terms; the first is the unit with probability ``unit_term``."""
        rng, unit = self.rng, FAMILIES[family][1]
        pick = rng.random()
        if pick < 0.03:
            return "0"
        if pick < 0.08:
            return rng.choice([unit, f"2*{unit}", f"{unit} + {unit}"])
        terms = [unit] if rng.random() < unit_term else []
        for _ in range(rng.randint(1, 3 - len(terms))):
            head = rng.choice(["", "", "2*", "3*", "0*", "-1*", "x*"] if rng.random() < 0.05
                              else ["", "", "", "2*", "3*"])
            terms.append(head + self.label(family))
        return rng.choice([" + ", "+", " + + "] if rng.random() < 0.05 else [" + "]).join(terms)

    def star_word(self):
        rng = self.rng
        letters = [rng.choice(["X", "X*", "X", "X*", "X ", "*", "Y", "X**"]
                              if rng.random() < 0.1 else ["X", "X*"])
                   for _ in range(rng.randint(0, 8))]
        return "".join(letters)

    def param_list(self):
        return ",".join(self.rng.choice(PARAMS) for _ in range(self.rng.randint(1, 4)))

    def label_set(self, family):
        rng = self.rng
        labels = [self.label(family) for _ in range(rng.randint(0, 3))]
        pick = rng.random()
        if pick < 0.45 or family in ("ao3", "ao2q", "aut4", "au2") and pick < 0.8:
            return labels
        if pick < 0.55:
            return {"type": "finite", "labels": labels}
        if pick < 0.6:
            return rng.choice([5, "s", {"type": "ball"}, {"type": "cylinder", "mystery": 1},
                               {"type": "cylinder", "prefixes": "s"}])
        return {"type": "cylinder",
                **{key: [self.label(family) for _ in range(rng.randint(0, 2))]
                   for key in ("prefixes", "include", "except") if rng.random() < 0.7}}

    def witness(self, family):
        rng = self.rng
        if rng.random() < 0.05:
            return self.write(rng.choice(["[1]", "{", "", '"F"', "[" * 200]))
        data = {"F": [self.label(family) for _ in range(rng.randint(1, 2))],
                "D": self.label_set(family), "E": self.label_set(family),
                "r": [self.label(family) for _ in range(3 if rng.random() < 0.95 else 2)]}
        if rng.random() < 0.5:
            data["truncation_radius"] = rng.choice([0, 1, 2, 2, -1, True, "2", 1.5])
        if rng.random() < 0.05:
            del data[rng.choice(sorted(data))]
        return self.write(data)

    def count(self, least, most):
        """An integer flag: mostly in ``least..most``, at times one below ``least``."""
        return str(least - 1 if self.rng.random() < 0.1 else self.rng.randint(least, most))

    def flags(self, command, family):
        rng = self.rng
        element, label = (lambda: self.element(family)), (lambda: self.label(family))
        if command == "decompose":
            return {"--x": element(), "--y": element()}
        if command == "moments":
            pick = rng.random()
            out = {"--u": element()}
            if pick < 0.45:
                out["--word"] = self.star_word()
            elif pick < 0.95:
                out["--k"] = self.count(1, 8)
                if rng.random() < 0.4:
                    out["--even"] = None
            return out
        if command == "distance":
            return {"--v": self.element(family, 0.9), "--a": label(), "--b": label(),
                    "--budget": self.count(0, 3)}
        if command in ("ball", "growth"):
            radius = "--r" if command == "ball" else "--rmax"
            out = {"--v": self.element(family, 0.9), "--center": label(),
                   radius: self.count(0, 4)}
            if command == "growth" and rng.random() < 0.2:
                out["--csv"] = self.path(".csv") if rng.random() < 0.8 else str(
                    self.tmp_path / "missing" / "g.csv")
            return out
        if command == "amenable":
            out = {"--depth": self.count(3, 8)}
            if rng.random() < 0.7:
                out["--u"] = element()
            if rng.random() < 0.3:
                out["--tol"] = rng.choice(["0.05", "0", "0.2", "0.05", "-1", "nan", "inf", "x"])
            if rng.random() < 0.3:
                out["--method"] = rng.choice(["root", "ratio", "extrapolated-ratio", "mean"])
            return out
        if command == "list-invariant":
            return {"--depth": self.count(0, 8)}
        if command == "modular-spectrum":
            out = {}
            if rng.random() < 0.8:
                out["--list"] = self.param_list()
            if rng.random() < 0.5:
                out["--member"] = self.param_list()
            return out
        if command == "graph":
            out = {"--u": element(), "--depth": self.count(1, 8)}
            if rng.random() < 0.2:
                out["--dot"] = self.path(".dot")
            return out
        if command == "powers-check":
            return {"--witness": self.witness(family)}
        assert command == "powers-search"
        return {"--f": ",".join(label() for _ in range(rng.randint(1, 3))),
                "--budget": self.count(0, 3)}

    def family_and_command(self):
        """A family and a subcommand; the list commands mostly get a params block."""
        rng = self.rng
        command = rng.choice(COMMANDS)
        if command in ("list-invariant", "modular-spectrum", "graph") and rng.random() < 0.6:
            return "ao2q", command
        if command.startswith("powers") and rng.random() < 0.6:
            return rng.choice(["f2", "zz3", "z3", "z", "z^2", "z2*z2"]), command
        return rng.choice(sorted(FAMILIES)), command

    def argv(self, family_path, family, command):
        """Argv for ``command``, at times with a flag dropped, doubled, unknown
        or not an integer, or an unknown subcommand."""
        rng = self.rng
        flags = {"--family": family_path, **self.flags(command, family)}
        if rng.random() < 0.1:
            flags["--cache-dir"] = str(self.tmp_path / "cache")
        pick = rng.random()
        if pick < 0.04:
            del flags[rng.choice(sorted(flags))]
        elif pick < 0.06:
            flags["--mystery"] = "1"
        elif pick < 0.08:
            int_flags = [f for f in ("--depth", "--budget", "--k", "--r", "--rmax") if f in flags]
            if int_flags:
                flags[rng.choice(int_flags)] = rng.choice(["x", "1.5", "", "2e3"])
        elif pick < 0.09:
            command = rng.choice(["frobnicate", "Decompose", ""])
        argv = [command]
        for flag, value in flags.items():
            argv += [flag] if value is None else [flag, value]
        if rng.random() < 0.03:
            argv += argv[1:3]  # a flag given twice: argparse keeps the last
        return argv

    def mutated_config(self, family):
        """The family's config with one or two of the schema's keys changed:
        mostly to another valid value, at times retyped, out of range,
        dropped, misspelt or moved to a family that has no such key."""
        rng = self.rng
        cfg = json.loads(json.dumps(FAMILIES[family][0]))

        def value(valid, invalid):
            return rng.choice(valid if rng.random() < 0.7 else invalid)

        for _ in range(rng.randint(1, 2)):
            pick = rng.random()
            if pick < 0.04:
                cfg["family"] = rng.choice(["a_o", "aut", "a_u", "group_dual", "so3", 1, None])
            elif pick < 0.07:
                del cfg[rng.choice(sorted(cfg))]
            elif pick < 0.1:
                cfg[rng.choice(["mystery", "Family", "params ", "factor", "n", "factors"])] = 1
            elif pick < 0.55 and "n" in cfg:
                cfg["n"] = value([2, 3, 4, 5, 6], NUMBERS)
            elif pick < 0.55 and isinstance(cfg.get("factors"), list):
                factors = cfg["factors"]
                f = rng.choice([f for f in factors if isinstance(f, dict)] or [{}])
                own = {"Z": ["name"], "Zmod": ["m", "name"], "Zd": ["d", "names"]}
                key = rng.choice(own.get(f.get("type"), []) * 8
                                 + ["type", "m", "d", "name", "names", "mystery"])
                f[key] = {"type": lambda: value(["Z", "Zmod", "Zd"], ["Q", 1, None]),
                          "m": lambda: value([2, 3, 4], [1, 0, -3, True, "3", 2.0]),
                          "d": lambda: value([1, 2, 3], [0, -1, True, "2"]),
                          "name": lambda: value(["u", "v", "s"], ["e", "g1", "", "1x", 1]),
                          "names": lambda: value([["u", "v"], ["s", "t"]],
                                                 [["e", "t"], ["s"], "st", [1, 2]]),
                          "mystery": lambda: 1}[key]()
                if rng.random() < 0.3:
                    factors.append(value([{"type": "Z"}, {"type": "Zmod", "m": 2}],
                                         [{"type": "Zd", "d": 1}, "Z", {}]))
                if rng.random() < 0.05:
                    cfg["factors"] = rng.choice([[], {}, "Z"])
            else:
                block = cfg.get("params")
                block = block if isinstance(block, dict) else {}
                key = rng.choice(["generators", "fundamental_list", "values"] * 6
                                 + ["mystery"])
                block[key] = {
                    "generators": lambda: value([["q"], ["q", "r"], []], ["q", [1]]),
                    "fundamental_list": lambda: value(
                        [["q", "q^-1"], ["1", "1"], ["2^1/2", "2^-1/2"], ["q^2", "q^-2"]],
                        [["q"], ["1", "1", "1"], ["q", ""], [1], "q", []]),
                    "values": lambda: {"q": value(["6/5", 1.2, 2, "1", 0.5],
                                                  NUMBERS + ["-1/2", "1e400", "1/0"])},
                    "mystery": lambda: [1]}[key]()
                cfg["params"] = block if rng.random() < 0.95 else rng.choice([[], "q"])
        return cfg


@pytest.fixture
def fuzz_rng():
    return random.Random(SEED)


def test_fuzzed_argv_end_in_one_envelope(capsys, tmp_path, fuzz_rng):
    draw = Draw(fuzz_rng, tmp_path)
    paths = {name: draw.write(spec) for name, (spec, _, _) in FAMILIES.items()}
    codes = []
    for _ in range(ARGV_DRAWS):
        family, command = draw.family_and_command()
        codes.append(run_cli(capsys, draw.argv(paths[family], family, command))[0])
    # the draw reaches all three outcomes, success in more than a third of the inputs
    assert {0, 1, 2} <= set(codes) and codes.count(0) > len(codes) // 3


def test_fuzzed_configs_end_in_one_envelope(capsys, tmp_path, fuzz_rng):
    draw = Draw(fuzz_rng, tmp_path)
    codes = []
    for _ in range(CONFIG_DRAWS):
        family, command = draw.family_and_command()
        path = draw.write(draw.mutated_config(family))
        codes.append(run_cli(capsys, draw.argv(path, family, command))[0])
    assert {0, 1, 2} <= set(codes) and codes.count(2) > len(codes) // 3
