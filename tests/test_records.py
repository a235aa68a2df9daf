"""The package's eleven public records behave as the frozen dataclasses
they replaced: equality, hashing, ``repr``, immutability, pickling and
copying, keyword and default construction, and ``match``.  Every pinned
``repr`` and ``__match_args__`` is the one the dataclasses gave."""

import copy
import pickle

import pytest

from noflip import (
    ForceGoal,
    ForceResult,
    ForceStatus,
    GameState,
    GameTrace,
    LengthStats,
    Outcome,
    OutcomeCensus,
    OutcomeKind,
    Player,
    Prediction,
    ProgressAutomaton,
    RunProfile,
    TossString,
    VerifyReport,
    census,
    force,
    longest_finite,
    run_profile,
)

ts = TossString.from_text

# (record, its fields by keyword, its repr, its class's __match_args__)
RECORDS = [
    (
        ts("HTT"),
        dict(length=3, bits=0b011),
        "TossString('HTT')",
        ("length", "bits"),
    ),
    (
        ProgressAutomaton.build(ts("HT")),
        dict(pattern=ts("HT"), table=((1, 0), (1, 2))),
        "ProgressAutomaton(pattern=TossString('HT'), table=((1, 0), (1, 2)))",
        ("pattern", "table"),
    ),
    (
        GameState(1, 2, 3),
        dict(a=1, b=2, k=3),
        "GameState(a=1, b=2, k=3)",
        ("a", "b", "k"),
    ),
    (
        Outcome(OutcomeKind.BOB_WINS, 4),
        dict(kind=OutcomeKind.BOB_WINS, tosses=4, entry=None, period=None),
        "Outcome(kind=<OutcomeKind.BOB_WINS: 'bob_wins'>, tosses=4, entry=None, "
        "period=None)",
        ("kind", "tosses", "entry", "period"),
    ),
    (
        Outcome.infinite(2, 4),
        dict(kind=OutcomeKind.INFINITE, tosses=None, entry=2, period=4),
        "Outcome(kind=<OutcomeKind.INFINITE: 'infinite'>, tosses=None, entry=2, "
        "period=4)",
        ("kind", "tosses", "entry", "period"),
    ),
    (
        GameTrace(b"\x00\x01\x00", bytes([0, 0, 1, 0, 0, 1, 1, 2])),
        dict(codes=b"\x00\x01\x00", progress=b"\x00\x00\x01\x00\x00\x01\x01\x02"),
        "GameTrace(codes=b'\\x00\\x01\\x00', "
        "progress=b'\\x00\\x00\\x01\\x00\\x00\\x01\\x01\\x02')",
        ("codes", "progress"),
    ),
    (
        run_profile(ts("HHT")),
        dict(heads=(1, 2, 2), tails=(0, 0, 1)),
        "RunProfile(heads=(1, 2, 2), tails=(0, 0, 1))",
        ("heads", "tails"),
    ),
    (
        Prediction("doubled-opening", OutcomeKind.INFINITE),
        dict(rule="doubled-opening", kind=OutcomeKind.INFINITE, tosses=None),
        "Prediction(rule='doubled-opening', kind=<OutcomeKind.INFINITE: "
        "'infinite'>, tosses=None)",
        ("rule", "kind", "tosses"),
    ),
    (
        force(Player.BOB, ForceGoal.LOSS, ts("HTH")),
        dict(
            status=ForceStatus.FOUND,
            method="copy-flip-last",
            constructed=ts("HTT"),
            verified_outcome=Outcome(OutcomeKind.ALICE_WINS, 3),
        ),
        "ForceResult(status=<ForceStatus.FOUND: 'found'>, method='copy-flip-last', "
        "constructed=TossString('HTT'), verified_outcome=Outcome(kind=<OutcomeKind."
        "ALICE_WINS: 'alice_wins'>, tosses=3, entry=None, period=None))",
        ("status", "method", "constructed", "verified_outcome"),
    ),
    (
        ForceResult(ForceStatus.IMPOSSIBLE, "exhaustive-search"),
        dict(
            status=ForceStatus.IMPOSSIBLE,
            method="exhaustive-search",
            constructed=None,
            verified_outcome=None,
        ),
        "ForceResult(status=<ForceStatus.IMPOSSIBLE: 'impossible'>, "
        "method='exhaustive-search', constructed=None, verified_outcome=None)",
        ("status", "method", "constructed", "verified_outcome"),
    ),
    (
        census(2),
        dict(n=2, total=12, alice_wins=4, bob_wins=6, infinite=2),
        "OutcomeCensus(n=2, total=12, alice_wins=4, bob_wins=6, infinite=2)",
        ("n", "total", "alice_wins", "bob_wins", "infinite"),
    ),
    (
        longest_finite(2),
        dict(
            n=2,
            max_finite_tosses=3,
            argmax_pairs=((ts("HH"), ts("TH")), (ts("TT"), ts("HT"))),
        ),
        "LengthStats(n=2, max_finite_tosses=3, argmax_pairs=((TossString('HH'), "
        "TossString('TH')), (TossString('TT'), TossString('HT'))))",
        ("n", "max_finite_tosses", "argmax_pairs"),
    ),
    (
        VerifyReport("bound", 2, 12, ("HH/TT: wrong",)),
        dict(suite="bound", n=2, checks=12, violations=("HH/TT: wrong",)),
        "VerifyReport(suite='bound', n=2, checks=12, violations=('HH/TT: wrong',))",
        ("suite", "n", "checks", "violations"),
    ),
]

# Record classes that take any field values, by field count: each record
# is compared with one of another class holding its own field values.
UNCHECKED = {
    2: (RunProfile, ProgressAutomaton),
    3: (LengthStats, Prediction),
    4: (VerifyReport, Outcome),
    5: (OutcomeCensus,),
}


def test_the_table_covers_all_eleven_record_classes():
    assert len({type(record) for record, *_ in RECORDS}) == 11


@pytest.mark.parametrize(
    "record, fields, text, names",
    RECORDS,
    ids=[f"{type(r).__name__}-{i}" for i, (r, *_) in enumerate(RECORDS)],
)
def test_record_behaves_as_its_frozen_dataclass_did(record, fields, text, names):
    cls = type(record)
    values = tuple(fields.values())
    assert cls.__match_args__ == names == tuple(fields)
    assert tuple(getattr(record, name) for name in names) == values

    # Keyword and positional construction give equal records.
    assert cls(**fields) == record == cls(*values)
    assert not record != cls(**fields)

    # Equality needs the same class: not a tuple, not another record class.
    for other in UNCHECKED[len(names)]:
        if other is not cls:
            twin = other(*values)
            assert record != twin and twin != record
            assert not record == twin
            break
    assert record != values and not record == values

    # A changed field breaks equality, set past any checks of __init__.
    changed = copy.copy(record)
    object.__setattr__(changed, names[-1], "changed")
    assert record != changed and not record == changed
    assert changed == changed

    assert hash(record) == hash(values)
    assert {record: 1}[cls(**fields)] == 1

    assert repr(record) == text

    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, names[0]) == values[0]

    for copied in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(copied) is cls and copied is not record
        assert copied == record and hash(copied) == hash(record)
        assert repr(copied) == text


def test_defaults_are_none():
    assert Outcome(OutcomeKind.ALICE_WINS) == Outcome(
        kind=OutcomeKind.ALICE_WINS, tosses=None, entry=None, period=None
    )
    assert Prediction("rule", OutcomeKind.INFINITE).tosses is None
    result = ForceResult(ForceStatus.UNKNOWN, "search-cap")
    assert result.constructed is None and result.verified_outcome is None


def test_records_match_positional_and_keyword_patterns():
    match Outcome.infinite(2, 4):
        case Outcome(OutcomeKind.INFINITE, None, entry, period=period):
            assert (entry, period) == (2, 4)
        case _:
            pytest.fail("an infinite outcome did not match")
    match ts("HTT"):
        case TossString(3, bits):
            assert bits == 0b011
        case _:
            pytest.fail("a length-3 string did not match")


def test_records_keep_their_fields_in_slots():
    for record, *_ in RECORDS:
        assert not hasattr(record, "__dict__")


@pytest.mark.parametrize(
    "record, fields",
    [(record, fields) for record, fields, *_ in RECORDS],
    ids=[f"{type(r).__name__}-{i}" for i, (r, *_) in enumerate(RECORDS)],
)
def test_misused_constructors_raise_type_error(record, fields):
    cls = type(record)
    first, *_ = fields
    values = tuple(fields.values())
    rest = {name: value for name, value in fields.items() if name != first}
    misuses = {
        "missing field": lambda: cls(**rest),
        "unknown keyword": lambda: cls(*values, extra=1),
        "field by position and keyword": lambda: cls(*values, **{first: values[0]}),
        "extra positional value": lambda: cls(*values, values[-1]),
    }
    for misuse, build in misuses.items():
        try:
            build()
        except TypeError:
            continue
        pytest.fail(f"{cls.__name__}: {misuse} raised no TypeError")
