"""Benchmark-owned inputs: a seeded script generator and fake chat models.

Everything here derives from the workload seed, and nothing imports the
test suite's generators, so edits to tests cannot shift the baseline.

The fake models implement the `LlmClient` protocol. A reply is a pure
function of (workload seed, call number, conversation content, occurrence
count of that conversation), so identical conversations still get
independent samples and a response cache cannot pass as a speed-up: it
would change the replies, and the correctness checks would notice. The
call number gives every timed call its own replies, as every live run
gets, so nothing the program caches across calls is reused.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass

# Reply kinds of a generation request.
NORMAL = "normal"
UNUSABLE = "unusable"
L1, L2, L3 = "L1", "L2", "L3"
TRIGGERS = (L1, L2, L3)

UNUSABLE_PER_MILLE = 50  # about 5% of generation replies cannot be extracted
TRIGGER_PER_MILLE = 20  # plus the family seeds below: about 5% triggers overall
FAMILY_EVERY = 33  # seed k with k % 33 == 0 is a historical bug of one class

_KEYS = ("a", "b", "id", "name", "value", "items", "data", "x", "y", "count")
_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "json", "node", "leaf", "root")
_TOPICS = (
    "decimal round trips", "typed getters", "bean serialization", "path queries",
    "typed parsing", "document validation", "error handling", "array sizes",
)
_INT64_MAX = 2**63 - 1


def _q(text: str) -> str:
    """Embed `text` (already a JSON document) as a DSL string literal."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dec(rng: random.Random) -> str:
    return f"{rng.randint(-999, 999)}.{rng.randint(1, 99)}"


# Each block takes a suffix that keeps its names unique within a script and
# holds at least one assertion. Normal blocks never touch a planted bug, so
# every engine gives them the same outcome; some are meant to fail or error.

def _roundtrip(rng, i):
    feats = rng.choice(("", ", [UseBigDecimalForFloats]"))
    return (
        f"let d{i} = {_dec(rng)};\nlet s{i} = serialize(d{i});\n"
        f"let p{i} = parse(s{i}{feats});\nassert_eq(d{i}, p{i});\n"
    )


def _getters(rng, i):
    k1, k2 = rng.sample(_KEYS, 2)
    n, word = rng.randint(-5000, 5000), rng.choice(_WORDS)
    expected = n if rng.random() < 0.8 else n + 1
    doc = _q(f'{{"{k1}": {n}, "{k2}": "{word}"}}')
    return (
        f"let o{i} = parse({doc});\n"
        f'assert_eq({expected}, get(o{i}, "{k1}", integer));\n'
        f'assert_eq("{word}", get(o{i}, "{k2}", string));\n'
    )


def _bean(rng, i):
    word, n = rng.choice(_WORDS), rng.randint(0, 99999)
    if rng.random() < 0.5:
        feats, num = "[WriteNonStringValueAsString]", f'\\"{n}\\"'
    else:
        feats, num = "[WriteNulls]", str(n)
    return (
        f"bean B{i} {{ name: string; n: integer; }}\n"
        f'let b{i} = make_bean(B{i}, name = "{word}", n = {n});\n'
        f"let j{i} = serialize(b{i}, {feats});\n"
        f'assert_eq("{{\\"name\\":\\"{word}\\",\\"n\\":{num}}}", j{i});\n'
    )


def _path(rng, i):
    key = rng.choice(_KEYS)
    items = ", ".join(str(rng.randint(0, 999)) for _ in range(rng.randint(2, 4)))
    index = rng.randint(0, 1)
    return (
        f'let obj{i} = {{"{key}": [{items}]}};\nlet str{i} = serialize(obj{i});\n'
        f'assert_eq(path_eval(str{i}, "$.{key}[{index}]"), '
        f'path_eval(obj{i}, "$.{key}[{index}]"));\n'
    )


def _typed(rng, i):
    n = rng.randint(-10**12, 10**12)
    doc = _q('{"v":%d}' % n)
    return (
        f"bean Box{i} {{ v: decimal; }}\n"
        f"let t{i} = parse_typed({doc}, Box{i});\n"
        f'assert_eq({n}, get(t{i}, "v", integer));\n'
    )


def _valid(rng, i):
    key, n = rng.choice(_KEYS), rng.randint(0, 99)
    good, bad = _q(f'{{"{key}":{n}}}'), _q(f"{{{key}:{n}}}")
    return f"assert_eq(true, is_valid({good}));\nassert_eq(false, is_valid({bad}));\n"


def _broken(rng, i):
    return f'let e{i} = parse("broken {rng.randint(0, 10**6)}");\nassert_not_null(e{i});\n'


def _sizes(rng, i):
    n = rng.randint(1, 6)
    items = ",".join(str(rng.randint(0, 99)) for _ in range(n))
    guess = n if rng.random() < 0.85 else n + 1
    return (
        f"let a{i} = parse({_q(f'[{items}]')});\nassert_eq({guess}, size(a{i}));\n"
        f"assert_throws(get(a{i}, {n + rng.randint(0, 3)}, integer));\n"
    )


_NORMAL_BLOCKS = (_roundtrip, _getters, _bean, _path, _typed, _valid, _broken, _sizes)
_NORMAL_WEIGHTS = (3, 3, 3, 3, 3, 3, 1, 3)


# Trigger blocks diverge on exactly one planted bug. Names come from small
# sets, so one bug yields a few signatures, not one per reply.

def _trigger_l1(rng, i):
    key = rng.choice(_KEYS[:3])
    return (
        f'let obj = {{"{key}": [{rng.randint(-999, 999)}]}};\n'
        f"let str = serialize(obj);\n"
        f'assert_eq(path_eval(str, "$.{key}[0][0]"), path_eval(obj, "$.{key}[0][0]"));\n'
    )


def _trigger_l2(rng, i):
    bean, fieldname = rng.choice(("Bean", "Flag")), rng.choice(("b", "enabled"))
    value = rng.choice(("true", "false"))
    return (
        f"bean {bean} {{ {fieldname}: boolean; }}\n"
        f"let v = make_bean({bean}, {fieldname} = {value});\n"
        f"let json = serialize(v, [WriteNonStringValueAsString]);\n"
        f'assert_eq("{{\\"{fieldname}\\":\\"{value}\\"}}", json);\n'
    )


def _trigger_l3(rng, i):
    big = _INT64_MAX + 2 * rng.randint(1, 10**15)  # odd: strip_zeros keeps it
    doc = _q('{"v":%d}' % big)
    return (
        f"bean Wide {{ v: decimal; }}\nlet d = {big};\n"
        f"let w = parse_typed({doc}, Wide);\n"
        f'assert_eq(strip_zeros(d), get(w, "v", decimal));\n'
    )


_TRIGGER_BLOCKS = {L1: _trigger_l1, L2: _trigger_l2, L3: _trigger_l3}


def normal_script(rng: random.Random) -> str:
    blocks = rng.choices(_NORMAL_BLOCKS, _NORMAL_WEIGHTS, k=rng.randint(1, 3))
    return "".join(block(rng, i) for i, block in enumerate(blocks))


def trigger_script(rng: random.Random, bug: str) -> str:
    """The trigger comes first, so no earlier failure can mask it."""
    text = _TRIGGER_BLOCKS[bug](rng, 0)
    if rng.random() < 0.5:
        text += rng.choice((_roundtrip, _valid, _path))(rng, 1)
    return text


def unusable_reply(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return (
            f"I'm sorry, but I cannot write test {rng.randint(0, 10**6)} "
            "without more context about the library."
        )
    # A fenced script with its first statement terminator removed.
    broken = normal_script(rng).replace(";\n", "\n", 1)
    return f"Here is the test:\n```\n{broken}```\n"


def wrap_script(rng: random.Random, script: str) -> str:
    lead = rng.choice((
        "Here is a new unit test:", "Sure! The following test covers similar behaviour:",
        "A new test case:",
    ))
    fence = rng.choice(("```", "```dsl"))
    return f"{lead}\n{fence}\n{script}```\nThis test exercises the same functions.\n"


def family_of(index: int) -> str | None:
    """The planted-bug class a seed's history belongs to, if any."""
    if index % FAMILY_EVERY:
        return None
    return TRIGGERS[(index // FAMILY_EVERY) % len(TRIGGERS)]


def seed_corpus(seed: int, count: int) -> list[tuple[str, str, str | None]]:
    """`count` distinct seed scripts as (file name, text, bug family)."""
    rng = random.Random(f"corpus:{seed}")
    seeds, seen = [], set()
    for index in range(count):
        family = family_of(index)
        while True:
            text = trigger_script(rng, family) if family else normal_script(rng)
            if text not in seen:
                break
        seen.add(text)
        seeds.append((f"issue{index:04d}.t", text, family))
    return seeds


def _unit(digest: bytes) -> int:
    return int.from_bytes(digest[:8], "big")


class _FakeModel:
    """Occurrence counting, fixed latency and call accounting."""

    def __init__(self, seed: int, call: int, latency_s: float):
        self.latency_s = latency_s
        self._key = hashlib.blake2b(f"{seed}:{call}".encode(), digest_size=16).digest()
        self._occurrences: Counter[bytes] = Counter()
        self._lock = threading.Lock()
        self.calls = 0

    def conversation_key(self, messages) -> bytes:
        blob = "\x1e".join(f"{m.role.value}\x1f{m.content}" for m in messages)
        return hashlib.blake2b(blob.encode("utf-8"), digest_size=16, key=self._key).digest()

    def complete(self, messages, params) -> str:
        conv = self.conversation_key(messages)
        with self._lock:
            occurrence = self._occurrences[conv]
            self._occurrences[conv] = occurrence + 1
            self.calls += 1
        sample = hashlib.blake2b(conv + occurrence.to_bytes(4, "big"), digest_size=8)
        reply = self._reply(messages, conv, _unit(sample.digest()))
        if self.latency_s:
            time.sleep(self.latency_s)
        return reply

    def _reply(self, messages, conv: bytes, u: int) -> str:
        raise NotImplementedError


class LoopModel(_FakeModel):
    """Answers summary requests and generation requests of the run loop.

    A generation request whose prompt carries a family seed is answered with
    a trigger of that seed's bug class; the rest get unusable, trigger or
    normal replies by the hash of the sample.
    """

    def __init__(self, seed: int, call: int, latency_s: float, family_seeds: dict[str, str]):
        super().__init__(seed, call, latency_s)
        self._family_seeds = family_seeds
        self.summary_calls = 0
        self.sent: Counter[str] = Counter()
        self.kind_of: dict[str, str] = {}

    def _reply(self, messages, conv: bytes, u: int) -> str:
        rng = random.Random(u)
        # The prompt layout is pinned by the program's golden tests: a
        # summary request is system + user, and a generation request
        # carries the seed text in its first user message.
        if len(messages) <= 2:
            with self._lock:
                self.summary_calls += 1
            topic = _TOPICS[u % len(_TOPICS)]
            return f"This test focuses on {topic}, checking case {u % 9973}."
        prompt = messages[1].content
        family = next((f for text, f in self._family_seeds.items() if text in prompt), None)
        draw = u % 1000
        if family is None and draw < UNUSABLE_PER_MILLE:
            kind, reply = UNUSABLE, unusable_reply(rng)
        else:
            if family is None and draw < UNUSABLE_PER_MILLE + TRIGGER_PER_MILLE:
                family = TRIGGERS[(u // 1000) % len(TRIGGERS)]
            if family is None:
                kind, script = NORMAL, normal_script(rng)
            else:
                kind, script = family, trigger_script(rng, family)
            reply = wrap_script(rng, script)
        with self._lock:
            self.sent[kind] += 1
            self.kind_of[reply] = kind
        return reply


# Triage: each vote is an independent sample; a case's conversation fixes
# how likely a vote is to say "good".

_GOOD_SHARE = (0.1, 0.3, 0.7, 0.9)
UNPARSEABLE_PERCENT = 5

GOOD, BAD, UNPARSEABLE = "good", "bad", "unparseable"


class TriageModel(_FakeModel):
    def __init__(self, seed: int, call: int, latency_s: float):
        super().__init__(seed, call, latency_s)
        self.votes: dict[bytes, list[str]] = {}

    def _reply(self, messages, conv: bytes, u: int) -> str:
        good_share = _GOOD_SHARE[conv[0] % len(_GOOD_SHARE)]
        if u % 100 < UNPARSEABLE_PERCENT:
            vote, text = UNPARSEABLE, "The failure could come from the test or from the library."
        else:
            vote = GOOD if (u // 100) % 1000 < good_share * 1000 else BAD
            text = (
                f"The test reports a failure at step {u % 7}. "
                f"Therefore, this test is a {vote} test."
            )
        with self._lock:
            self.votes.setdefault(conv, []).append(vote)
        return text


@dataclass(frozen=True)
class CaseSpec:
    category: str  # E_bad | E_good | F_bad | F_good
    text: str


TRIAGE_SPLIT = (("E_bad", 10), ("E_good", 10), ("F_bad", 11), ("F_good", 12))


def triage_scripts(seed: int) -> list[CaseSpec]:
    """43 distinct failing scripts: E_* raise an engine error, F_* fail an
    assertion."""
    rng = random.Random(f"triage:{seed}")
    specs, seen = [], set()
    for category, count in TRIAGE_SPLIT:
        target = len(specs) + count
        while len(specs) < target:
            n, key = rng.randint(0, 10**6), rng.choice(_KEYS)
            if category.startswith("E"):
                text = rng.choice((
                    f'let a = parse("broken {n}");\nassert_not_null(a);\n',
                    f'let a = parse("[{n}]");\nassert_eq({n}, get(a, 0, boolean));\n',
                    f'let a = parse("{{\\"k\\": {n}}}");\nassert_eq({n}, get(a, "k", array));\n',
                ))
            else:
                text = rng.choice((
                    f"assert_eq({n}, {n + 1});\n",
                    f'let o = parse("{{\\"{key}\\": {n}}}");\n'
                    f'assert_eq({n + 1}, get(o, "{key}", integer));\n',
                    f'assert_eq("{n}", serialize({n + 2}));\n',
                ))
            if text not in seen:
                seen.add(text)
                specs.append(CaseSpec(category, text))
    return specs
