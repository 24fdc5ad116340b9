"""Unit tests for the columnar simulator's vectorized RNG kernels.

Same contract as ``tests/test_profiles.py``, one level lower: the columnar
path re-implements numpy's ``SeedSequence`` entropy mixing and the PCG64
step/output functions as array arithmetic.  Given the same seeding inputs,
the kernels must produce the *same values* and the *same stream state* as
``numpy.random.Generator`` — bit-for-bit, since one flipped bit anywhere
breaks the crawl's byte-identity guarantee.  If a numpy upgrade changes
either algorithm these tests fail loudly instead of the columnar path
silently diverging from the reference path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import (
    _key_entropy,
    _mul128_add,
    _output_doubles,
    _seed_states,
    derive_rng,
    fast_uniform,
    stable_hash,
)


def _visit_entropy(publishers, day):
    """The entropy words of the columnar simulator's visit streams."""
    return _key_entropy([("visit", p.domain, day) for p in publishers])


def reference_generators(seed, domains, day):
    return [derive_rng(seed, "visit", domain, day) for domain in domains]


def generator_state(gen):
    state = gen.bit_generator.state["state"]
    return state["state"], state["inc"]


def split128(value):
    return np.uint64(value >> 64), np.uint64(value & 0xFFFFFFFFFFFFFFFF)


DOMAINS = [f"site-{i:06d}.example" for i in range(64)] + ["x.y", "a-very.long.domain.example"]


class TestSeedStates:
    @pytest.mark.parametrize("seed", [0, 5, 23, 77, 2019, 2**31 - 1, 2**63 - 1])
    @pytest.mark.parametrize("day", [0, 1, 33])
    def test_matches_derive_rng_initial_state(self, seed, day):
        """Batch seeding lands every stream on derive_rng's exact PCG64 state."""

        class P:
            def __init__(self, domain):
                self.domain = domain

        publishers = [P(d) for d in DOMAINS]
        hi, lo, inc_hi, inc_lo = _seed_states(seed, _visit_entropy(publishers, day))
        for i, gen in enumerate(reference_generators(seed, DOMAINS, day)):
            state, inc = generator_state(gen)
            assert (int(hi[i]) << 64) | int(lo[i]) == state
            assert (int(inc_hi[i]) << 64) | int(lo[i] * 0 + inc_lo[i]) == inc

    def test_visit_entropy_matches_stable_hash(self):
        class P:
            def __init__(self, domain):
                self.domain = domain

        entropy = _visit_entropy([P(d) for d in DOMAINS], 7)
        assert entropy.dtype == np.uint32
        for i, domain in enumerate(DOMAINS):
            assert int(entropy[i]) == stable_hash("visit", domain, 7) & 0xFFFFFFFF


class TestVectorStep:
    def test_matches_generator_random_for_thousands_of_draws(self):
        """Values AND final stream state agree with numpy, elementwise."""
        seed, day = 13, 2
        gens = reference_generators(seed, DOMAINS, day)

        class P:
            def __init__(self, domain):
                self.domain = domain

        hi, lo, inc_hi, inc_lo = _seed_states(seed, _visit_entropy([P(d) for d in DOMAINS], day))
        for _ in range(2000):
            hi, lo = _mul128_add(hi, lo, inc_hi, inc_lo)
            doubles = _output_doubles(hi, lo)
            for i, gen in enumerate(gens):
                assert float(doubles[i]) == float(gen.random())
        for i, gen in enumerate(gens):
            state, inc = generator_state(gen)
            assert (int(hi[i]) << 64) | int(lo[i]) == state
            assert (int(inc_hi[i]) << 64) | int(inc_lo[i]) == inc

    def test_state_activation_resumes_the_stream(self):
        """A scalar Generator activated with a kernel state continues the
        exact stream — the hook the per-page ad simulators rely on."""
        seed, day = 5, 0
        domains = DOMAINS[:8]

        class P:
            def __init__(self, domain):
                self.domain = domain

        hi, lo, inc_hi, inc_lo = _seed_states(seed, _visit_entropy([P(d) for d in domains], day))
        # Consume three draws vectorized, then hand over to a scalar
        # Generator and compare the *next* draws with an untouched reference.
        for _ in range(3):
            hi, lo = _mul128_add(hi, lo, inc_hi, inc_lo)
        gen = np.random.Generator(np.random.PCG64(0))
        template = {
            "bit_generator": "PCG64",
            "state": {"state": 0, "inc": 0},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for i, reference in enumerate(reference_generators(seed, domains, day)):
            for _ in range(3):
                reference.random()
            template["state"]["state"] = (int(hi[i]) << 64) | int(lo[i])
            template["state"]["inc"] = (int(inc_hi[i]) << 64) | int(inc_lo[i])
            gen.bit_generator.state = template
            for _ in range(50):
                assert float(gen.random()) == float(reference.random())
            assert fast_uniform(gen, 5.0, 40.0) == fast_uniform(reference, 5.0, 40.0)
            assert float(gen.lognormal(1.5, 0.4)) == float(reference.lognormal(1.5, 0.4))
            assert int(gen.integers(1, 4)) == int(reference.integers(1, 4))
            assert gen.bit_generator.state["state"] == reference.bit_generator.state["state"]

    def test_folded_uniform_constants_are_bit_exact(self):
        """``5 + 35*u`` / ``3 + 17*u`` over vector doubles equal fast_uniform.

        The columnar plain-page path folds ``low + (high-low)*u`` into
        literal constants; IEEE evaluation order must leave every double
        unchanged versus the scalar helper.
        """
        seed, day = 99, 1
        domains = DOMAINS[:16]

        class P:
            def __init__(self, domain):
                self.domain = domain

        hi, lo, inc_hi, inc_lo = _seed_states(seed, _visit_entropy([P(d) for d in domains], day))
        gens = reference_generators(seed, domains, day)
        for k in range(500):
            hi, lo = _mul128_add(hi, lo, inc_hi, inc_lo)
            u = _output_doubles(hi, lo)
            resource = 5.0 + 35.0 * u
            script = 3.0 + 17.0 * u
            for i, gen in enumerate(gens):
                expected = float(gen.random())
                low, high = ((5.0, 40.0), (3.0, 20.0))[k % 2]
                value = low + (high - low) * expected
                assert float((resource if k % 2 == 0 else script)[i]) == value
