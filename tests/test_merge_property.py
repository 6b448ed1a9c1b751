"""Property tests for the profile merge algebra (Hypothesis).

* :meth:`FunctionSamples.merge` is commutative and associative on every
  count, and :meth:`FlatProfile.merge` is commutative (integer-valued
  float sums are exact far past any realistic sample volume, and set
  unions / dict folds carry no order);
* DWARF flat profiles refuse to merge: their max-heuristic body counts
  are not additive.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.profile import FlatProfile, FunctionSamples, dump_flat_profile

# -- strategies --------------------------------------------------------------

NAMES = st.sampled_from(["alpha", "beta", "gamma", "delta"])
PROBE_IDS = st.integers(min_value=1, max_value=9)
COUNTS = st.integers(min_value=1, max_value=10_000)


@st.composite
def function_samples(draw, name=None):
    fs = FunctionSamples(name if name is not None else draw(NAMES))
    fs.head = float(draw(st.integers(min_value=0, max_value=1000)))
    for key, count in draw(st.dictionaries(PROBE_IDS, COUNTS,
                                           max_size=5)).items():
        fs.add_body(key, float(count))
    for key in draw(st.lists(PROBE_IDS, max_size=3, unique=True)):
        callee = draw(NAMES)
        fs.add_call(key, callee, float(draw(COUNTS)))
    for key in draw(st.lists(PROBE_IDS, max_size=2, unique=True)):
        fs.dangling.add(key)
    fs.finalize()
    return fs


@st.composite
def flat_profiles(draw):
    profile = FlatProfile(FlatProfile.KIND_PROBE)
    for name in draw(st.lists(NAMES, max_size=3, unique=True)):
        profile.functions[name] = draw(function_samples(name=name))
    return profile


# -- canonical forms for equality ---------------------------------------------

def fs_state(fs):
    return (fs.name, fs.total, fs.head, dict(fs.body),
            {k: dict(v) for k, v in fs.calls.items()},
            fs.checksum, frozenset(fs.attributes), frozenset(fs.dangling))


# -- FunctionSamples.merge ----------------------------------------------------

@given(function_samples(name="f"), function_samples(name="f"))
def test_function_samples_merge_commutative(a, b):
    ab, ba = a.clone(), b.clone()
    ab.merge(b)
    ba.merge(a)
    assert fs_state(ab) == fs_state(ba)


@given(function_samples(name="f"), function_samples(name="f"),
       function_samples(name="f"))
def test_function_samples_merge_associative(a, b, c):
    left = a.clone()
    left.merge(b)
    left.merge(c)
    bc = b.clone()
    bc.merge(c)
    right = a.clone()
    right.merge(bc)
    assert fs_state(left) == fs_state(right)


@given(function_samples(name="f"))
def test_function_samples_merge_identity(a):
    merged = a.clone()
    merged.merge(FunctionSamples("f"))
    assert fs_state(merged) == fs_state(a)


# -- FlatProfile.merge -------------------------------------------------------

@given(flat_profiles(), flat_profiles())
def test_flat_profile_merge_commutative(a, b):
    ab = FlatProfile(FlatProfile.KIND_PROBE)
    ab.merge(a)
    ab.merge(b)
    ba = FlatProfile(FlatProfile.KIND_PROBE)
    ba.merge(b)
    ba.merge(a)
    assert dump_flat_profile(ab) == dump_flat_profile(ba)


# -- guard rails --------------------------------------------------------------

def test_flat_merge_rejects_dwarf_kind():
    a = FlatProfile(FlatProfile.KIND_DWARF)
    b = FlatProfile(FlatProfile.KIND_DWARF)
    with pytest.raises(ValueError):
        a.merge(b)
