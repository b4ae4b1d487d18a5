"""The three benchmark workloads and their independent references.

A workload is built by `Workload(mods, seed, workdir)`, where `mods` maps
layer names to freshly imported gosil modules. It keeps the module objects
and calls through them, so that a traced run sees the tracer's wrappers and
an untraced one the originals. `prepare(i)` makes the input of operation i
and is not timed. `run(i)` is one closed-loop operation returning what the
program produced, and `verify(output)` compares that output with a reference
computed here from the generator's own construction, never by the program
under test. `finish()` makes the checks that span operations. `bytes_out`
counts what the CLI wrote.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


# -- check_wide -------------------------------------------------------------------

# Odd count, equal weight: the median falls inside the middle width's cluster
# and the 90th percentile inside the widest one, so neither jumps between
# clusters from run to run.
WIDTHS = (8, 22, 36, 50, 64)

# (form, count, verdict) per theory; the counts are fixed so that every seed
# asks for the same work and only the choice of indices and the order vary.
AXIOM_MIX = (
    ("concept_def", 6, "well-typed"),
    ("concept_specific", 6, "well-typed"),
    ("guard_pair", 16, "well-typed"),
    ("explicit", 16, "well-typed"),
    ("unguarded_deref", 2, "ill-typed"),
    ("sibling_arg", 2, "ill-typed"),
    ("super_arg", 2, "ill-typed"),
)
# Forms that each get a predicate q<i> of their own.
_Q_FORMS = ("concept_def", "concept_specific", "unguarded_deref")


def _distinct(rng: random.Random, draw, count: int) -> list:
    seen: list = []
    while len(seen) < count:
        item = draw()
        if item not in seen:
            seen.append(item)
    return seen


def wide_theory(m: int, rng: random.Random, tag: str) -> tuple[str, list[tuple[str, str]]]:
    """A theory over supertype S, m sibling subtypes A<k> each carrying one
    predicate p<k>, and the concept type P := {p0..p<m-1>}. Every symbol
    ends in `_<tag>`, so theories with different tags share no sentence.
    Returns the text and the (label, verdict) list its construction
    implies."""
    n_q = sum(count for form, count, _ in AXIOM_MIX if form in _Q_FORMS)
    S, P = f"S_{tag}", f"P_{tag}"

    def A(k):
        return f"A{k}_{tag}"

    def p(k):
        return f"p{k}_{tag}"

    lines = [f"type {S}"]
    lines += [f"type {A(k)} <: {S}" for k in range(m)]
    lines += [f"pred {p(k)} : {A(k)}" for k in range(m)]
    lines += [f"pred q{i}_{tag} : {S}" for i in range(n_q)]
    lines.append(f"type {P} <: Concept := {{ " + ", ".join(p(k) for k in range(m)) + " }")

    def pair():
        return tuple(rng.sample(range(m), 2))

    def triple():
        return tuple(rng.sample(range(m), 3))

    axioms: list[tuple[str, str, str]] = []
    q = (f"q{i}_{tag}" for i in range(n_q))
    for form, count, verdict in AXIOM_MIX:
        if form == "concept_def":
            bodies = [f"!t[{S}]: {next(q)}(t) <=> ?s[{P}]: <<c: $(s)(t)>>" for _ in range(count)]
        elif form == "concept_specific":
            bodies = [f"!t[{S}]: {next(q)}(t) => !s[{P}]: <<i: $(s)(t)>>" for _ in range(count)]
        elif form == "guard_pair":
            bodies = [
                f"!t[{S}]: <<i: {p(j)}(t)>> & <<c: {p(k)}(t)>>"
                for j, k in _distinct(rng, pair, count)
            ]
        elif form == "explicit":
            bodies = [
                f"!t[{S}]: " + " | ".join(f"({A(k)}(t) & {p(k)}(t))" for k in ks)
                for ks in _distinct(rng, triple, count)
            ]
        elif form == "unguarded_deref":
            bodies = [f"!t[{S}]: {next(q)}(t) => ?s[{P}]: $(s)(t)" for _ in range(count)]
        elif form == "sibling_arg":
            bodies = [f"?x[{A(j)}]: {p(k)}(x)" for j, k in _distinct(rng, pair, count)]
        else:  # super_arg
            bodies = [f"!t[{S}]: {p(k)}(t)" for k in rng.sample(range(m), count)]
        for n, body in enumerate(bodies):
            axioms.append((f"{form}_{n}", body, verdict))
    rng.shuffle(axioms)
    lines += [f"axiom {label}: {body}" for label, body, _ in axioms]
    return "\n".join(lines) + "\n", [(label, verdict) for label, _, verdict in axioms]


class CheckWide:
    """`gosil check <file> --json`, in process, on a theory of its own for
    every operation: operation i has width WIDTHS[i mod 5] and symbols
    tagged with i, and its indices and axiom order come from the seed and
    i."""

    name = "check_wide"

    def __init__(self, mods, seed: int, workdir: Path):
        self.cli = mods["cli"]
        self.seed = seed
        self.path = workdir / "wide.gos"
        self.expected: list[tuple[str, str]] = []
        self.bytes_out = 0

    def prepare(self, i: int) -> None:
        rng = random.Random(f"{self.seed}/{i}")
        text, self.expected = wide_theory(WIDTHS[i % len(WIDTHS)], rng, f"{i:06d}")
        self.path.write_text(text, encoding="utf-8")

    def run(self, i: int):
        out = io.StringIO()
        code = self.cli.main(["check", str(self.path), "--json"], out=out)
        text = out.getvalue()
        self.bytes_out += len(text.encode())
        return code, text, self.expected

    def verify(self, output) -> bool:
        code, text, expected = output
        payload = json.loads(text.rstrip("\n").rsplit("\n", 1)[-1])
        got = [(a["label"], a["verdict"]) for a in payload["axioms"]]
        want_code = 1 if any(v == "ill-typed" for _, v in expected) else 0
        return code == want_code and got == expected

    def finish(self) -> bool:
        return True


# -- eval_oracle --------------------------------------------------------------------

# The ten sentences of one operation, each with the reference answer it
# must equal: "meow" is Cat∩meow ≠ ∅, "def" is makingSound =
# (Cat∩meow) ∪ (Dog∩bark), and "specific" is Cat ⊆ meow and Dog ⊆ bark.
ORACLE_SENTENCES = (
    ("cat_meowing", "meow"),
    ("making_sound_def", "def"),
    ("sound_by_witness", "def"),
    ("all_specific", "specific"),
    ("sound_by_kind", "def"),
    ("implicit_meow", "meow"),
    ("implicit_sound_def", "def"),
    ("each_its_sound", "specific"),
    ("compact_def", "def"),
    ("compact_specific", "specific"),
)

# The wrapped sentences whose cost is compared with their grounded forms.
WRAPPED = ("compact_def", "compact_specific")


def _subsets(elems: tuple) -> list[tuple]:
    return [
        tuple(e for i, e in enumerate(elems) if mask & (1 << i))
        for mask in range(2 ** len(elems))
    ]


def oracle_sets() -> list[dict[str, tuple[str, ...]]]:
    """Every structure with |Animal| <= 3 over the running-example
    vocabulary, as plain sets: Cat and Dog non-empty, meow ⊆ Cat, bark ⊆ Dog
    and makingSound arbitrary (tom is the first cat, age is constantly 0 and
    soundOfKind is fixed by the theory's facts)."""
    out = []
    for n in (1, 2, 3):
        animals = tuple(f"a{i}" for i in range(n))
        nonempty = _subsets(animals)[1:]
        for cats, dogs in itertools.product(nonempty, nonempty):
            for meow, bark, making in itertools.product(
                _subsets(cats), _subsets(dogs), _subsets(animals)
            ):
                out.append(
                    {"Animal": animals, "Cat": cats, "Dog": dogs,
                     "meow": meow, "bark": bark, "makingSound": making}
                )
    return out


def set_reference(sets) -> dict[str, bool]:
    cat, dog = set(sets["Cat"]), set(sets["Dog"])
    meow, bark = set(sets["meow"]), set(sets["bark"])
    return {
        "meow": bool(cat & meow),
        "def": set(sets["makingSound"]) == (cat & meow) | (dog & bark),
        "specific": cat <= meow and dog <= bark,
    }


class EvalOracle:
    """Ten well-typed sentences evaluated on one long-lived structure per
    operation, over the 5672 oracle structures in a seeded order."""

    name = "eval_oracle"

    def __init__(self, mods, seed: int, workdir: Path):
        sem = mods["semantics"]
        self.theory = mods["parser"].parse_theory(
            (FIXTURES / "running_example.gos").read_text(encoding="utf-8")
        )
        axioms = {a.label: a.formula for a in self.theory.axioms}
        self.formulas = {label: axioms[label] for label, _ in ORACLE_SENTENCES}
        vocab = self.theory.vocabulary
        forced = sem._forced_type_sets(vocab)
        sound_of_kind = {
            (sem.ConceptElement(fact.args[0]),): sem.ConceptElement(fact.value)
            for fact in self.theory.concept_facts
            if fact.function == "soundOfKind"
        }
        self.cases = []
        for sets in oracle_sets():
            el = {name: sem.PlainElement(name) for name in sets["Animal"]}

            def rows(key):
                return {(el[e],) for e in sets[key]}

            graphs = {
                "age": sem.FunctionGraph.for_function(
                    "age", {(el[a],): sem.NaturalElement(0) for a in sets["Animal"]}
                ),
                "tom": sem.FunctionGraph.for_function("tom", {(): el[sets["Cat"][0]]}),
                "meow": sem.FunctionGraph.for_predicate("meow", rows("meow")),
                "bark": sem.FunctionGraph.for_predicate("bark", rows("bark")),
                "makingSound": sem.FunctionGraph.for_predicate("makingSound", rows("makingSound")),
                "soundOfKind": sem.FunctionGraph.for_function("soundOfKind", sound_of_kind),
            }
            type_sets = {t: tuple(el[e] for e in sets[t]) for t in ("Animal", "Cat", "Dog")}
            structure = sem.Structure(vocab, {**type_sets, **forced}, graphs)
            ref = set_reference(sets)
            expected = tuple(ref[kind] for _, kind in ORACLE_SENTENCES)
            self.cases.append((structure, expected))
        random.Random(seed).shuffle(self.cases)
        self.sem = sem
        self.grounding = mods["grounding"]
        self.bytes_out = 0
        self.disagreements = 0

    def prepare(self, i: int) -> None:
        pass

    def run(self, i: int):
        structure, expected = self.cases[i % len(self.cases)]
        evaluate = self.sem.evaluate
        got = tuple(evaluate(structure, self.formulas[label]) for label, _ in ORACLE_SENTENCES)
        return got, expected

    def verify(self, output) -> bool:
        got, expected = output
        return got == expected

    def finish(self) -> bool:
        return self.disagreements == 0

    def wrapped_vs_grounded(self, count: int, clock) -> dict[str, tuple[float, float]]:
        """Per WRAPPED sentence, mean seconds per `evaluate` of it and of its
        grounded form, interleaved on the first `count` structures. The two
        values must agree; `finish()` fails the run when they do not."""
        interp = self.grounding.build_intensional_interp(self.theory)
        evaluate = self.sem.evaluate
        out = {}
        for label in WRAPPED:
            wrapped = self.formulas[label]
            grounded = self.grounding.ground(wrapped, interp)
            w_time = g_time = 0.0
            for structure, _ in self.cases[:count]:
                t0 = clock()
                a = evaluate(structure, wrapped)
                t1 = clock()
                b = evaluate(structure, grounded)
                t2 = clock()
                self.disagreements += a != b
                w_time += t1 - t0
                g_time += t2 - t1
            out[label] = (w_time / count, g_time / count)
        return out


# -- models_sounds --------------------------------------------------------------------

MODEL_BOUND = 2
NAT_BOUND = 3


# The axioms of sounds.gos fall into three classes by truth on a candidate:
# "meow", "def" and "specific" (see ORACLE_SENTENCES). Its first four
# axioms, cat_meowing, sound_by_kind, implicit_meow and each_its_sound,
# cover all three, so only models get past them. Evaluation stops at the
# first false axiom, so the axioms after these are evaluated on the models
# alone, in whatever order.
FIXED_AXIOMS = 4


def permuted_sounds(seed: int) -> str:
    """fixtures/sounds.gos with its first FIXED_AXIOMS axiom lines kept in
    place and the rest in a seeded order: the search does the same work and
    prints the same models under every seed."""
    lines = (FIXTURES / "sounds.gos").read_text(encoding="utf-8").splitlines()
    axioms = [line for line in lines if line.startswith("axiom ")]
    rest = [line for line in lines if not line.startswith("axiom ")]
    tail = axioms[FIXED_AXIOMS:]
    random.Random(seed).shuffle(tail)
    return "\n".join(rest + axioms[:FIXED_AXIOMS] + tail) + "\n"


def expected_models(n: int, nat_bound: int) -> tuple[str, int]:
    """The exact `gosil models sounds.gos` output, built from set logic in the
    order documented by gosil.models: Cat then Dog over the non-empty subsets
    of Animal in ascending bitmask order, then age (mixed radix, last row
    fastest), tom, meow, bark and makingSound in declaration order. A
    candidate is a model when Cat∩meow ≠ ∅, Cat ⊆ meow, Dog ⊆ bark and
    makingSound = (Cat∩meow) ∪ (Dog∩bark). Also returns the closed-form
    count (Σ_{∅≠C⊆Animal} |C|)·(2ⁿ−1)·(nat_bound+1)ⁿ."""
    animals = tuple(f"animal{i}" for i in range(n))
    nonempty = _subsets(animals)[1:]

    def block(name, rows):
        return f"interp {name} = {{ {', '.join(sorted(rows))} }}"

    models = []
    for cats, dogs in itertools.product(nonempty, nonempty):
        for ages in itertools.product(range(nat_bound + 1), repeat=n):
            for tom in cats:
                for meow, bark, making in itertools.product(
                    _subsets(cats), _subsets(dogs), _subsets(animals)
                ):
                    sets = {"Cat": cats, "Dog": dogs, "meow": meow, "bark": bark,
                            "makingSound": making}
                    ref = set_reference(sets)
                    if not (ref["meow"] and ref["def"] and ref["specific"]):
                        continue
                    models.append("\n".join([
                        f"type Animal = {{ {', '.join(animals)} }}",
                        f"type Cat = {{ {', '.join(cats)} }}",
                        f"type Dog = {{ {', '.join(dogs)} }}",
                        block("age", [f"({a}) -> {v}" for a, v in zip(animals, ages)]),
                        block("tom", [f"() -> {tom}"]),
                        block("meow", [f"({e})" for e in meow]),
                        block("bark", [f"({e})" for e in bark]),
                        block("makingSound", [f"({e})" for e in making]),
                        block("soundOfKind", ["(`Cat) -> `meow", "(`Dog) -> `bark"]),
                    ]) + "\n")
    text = "".join(f"// model {i}\n{m}" for i, m in enumerate(models, start=1))
    text += f"// {len(models)} model(s)\n"
    closed = sum(len(c) for c in nonempty) * (2 ** n - 1) * (nat_bound + 1) ** n
    return text, closed


class ModelsSounds:
    """`gosil models sounds.gos --bound Animal=2 --nat-bound 3`, in process,
    on the text of `permuted_sounds`."""

    name = "models_sounds"

    def __init__(self, mods, seed: int, workdir: Path):
        self.cli = mods["cli"]
        self.path = workdir / "sounds.gos"
        self.path.write_text(permuted_sounds(seed), encoding="utf-8")
        self.expected, closed = expected_models(MODEL_BOUND, NAT_BOUND)
        if not self.expected.endswith(f"// {closed} model(s)\n"):
            raise AssertionError("reference model count differs from the closed form")
        self.bytes_out = 0

    def prepare(self, i: int) -> None:
        pass

    def run(self, i: int):
        out = io.StringIO()
        code = self.cli.main(
            ["models", str(self.path), "--bound", f"Animal={MODEL_BOUND}",
             "--nat-bound", str(NAT_BOUND)],
            out=out,
        )
        text = out.getvalue()
        self.bytes_out += len(text.encode())
        return code, text

    def verify(self, output) -> bool:
        # equal to the reference byte for byte, hence the same under every seed
        code, text = output
        return code == 0 and text == self.expected

    def finish(self) -> bool:
        return True


WORKLOADS = {w.name: w for w in (CheckWide, EvalOracle, ModelsSounds)}
