"""Rule generation: closed-form rates, drawn values, bucket selection."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofmon import sampling
from ofmon.model import SEED_LIMIT, FlowKey, Protocol
from ofmon.sampling import (
    PORT_SPACE,
    RuleSet,
    SamplingConfig,
    SamplingMethod,
    SamplingMode,
    config_for_rate,
    _sample_ports,
    check_seed,
    derive_seed,
    generate_rules,
    key_sampler,
    select_bucket,
)
from ofmon.switch import SAMPLING_PRIORITY, Bucket, Drop, GroupEntry, OutputToController

# chi-square critical value, 1 degree of freedom, alpha = 0.001
CHI2_CRIT_DF1 = 10.828


def random_keys(n, seed):
    rng = random.Random(seed)
    return [
        FlowKey(rng.getrandbits(32), rng.getrandbits(32),
                rng.randint(1, 65535), rng.randint(1, 65535),
                Protocol.TCP if rng.random() < 0.5 else Protocol.UDP)
        for _ in range(n)
    ]


# every rate p/q with q <= 64, each once
SMALL_RATES = sorted({Fraction(p, q) for q in range(1, 65) for p in range(1, q + 1)})


def closed_form(cfg):
    if cfg.method is SamplingMethod.IP_SUFFIX:
        return Fraction(1, 2 ** (cfg.src_size + cfg.dst_size))
    if cfg.method is SamplingMethod.PORT_BASED:
        if cfg.mode is SamplingMode.PAIR:
            return Fraction(cfg.src_size * cfg.dst_size, PORT_SPACE**2)
        return Fraction(cfg.src_size, PORT_SPACE)
    return Fraction(cfg.sample_weight, cfg.sample_weight + cfg.drop_weight)


def closed_form_entries(cfg):
    return cfg.src_size + cfg.dst_size if cfg.method is SamplingMethod.PORT_BASED else 1


class TestClosedFormRates:
    @pytest.mark.parametrize(
        "cfg,rate",
        [
            (SamplingConfig(SamplingMethod.IP_SUFFIX, src_size=6), Fraction(1, 64)),
            (SamplingConfig(SamplingMethod.IP_SUFFIX, SamplingMode.PAIR,
                            src_size=5, dst_size=5), Fraction(1, 1024)),
            (SamplingConfig(SamplingMethod.PORT_BASED, src_size=328),
             Fraction(328, 65535)),
            (SamplingConfig(SamplingMethod.PORT_BASED, SamplingMode.PAIR,
                            src_size=4634, dst_size=4634),
             Fraction(4634 * 4634, 65535 * 65535)),
            (SamplingConfig(SamplingMethod.HASH_BASED, sample_weight=1,
                            drop_weight=63), Fraction(1, 64)),
        ],
    )
    def test_known_rates(self, cfg, rate):
        assert generate_rules(cfg).theoretical_rate == rate

    def test_port_entry_budget_for_one_in_two_hundred(self):
        source = generate_rules(config_for_rate(
            SamplingMethod.PORT_BASED, SamplingMode.SOURCE_ONLY, Fraction(1, 200)))
        assert source.entries_per_protocol == 328
        assert len(source.flow_entries) == 2  # the drawn set, one entry per protocol
        pair = generate_rules(config_for_rate(
            SamplingMethod.PORT_BASED, SamplingMode.PAIR, Fraction(1, 200)))
        assert pair.entries_per_protocol == 9268
        assert len(pair.flow_entries) == 2  # folded into one predicate per protocol

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_structural_rate_equals_closed_form(self, data):
        method = data.draw(st.sampled_from(list(SamplingMethod)))
        mode = data.draw(st.sampled_from(list(SamplingMode)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        if method is SamplingMethod.IP_SUFFIX:
            src = data.draw(st.integers(0, 16))
            dst = data.draw(st.integers(0, 16)) if mode is SamplingMode.PAIR else 0
            cfg = SamplingConfig(method, mode, src, dst, seed=seed)
        elif method is SamplingMethod.PORT_BASED:
            src = data.draw(st.integers(1, 3000))
            dst = data.draw(st.integers(1, 3000)) if mode is SamplingMode.PAIR else 0
            cfg = SamplingConfig(method, mode, src, dst, seed=seed)
        else:
            cfg = SamplingConfig(method, mode,
                                 sample_weight=data.draw(st.integers(1, 100)),
                                 drop_weight=data.draw(st.integers(0, 10_000)),
                                 seed=seed)
        rules = generate_rules(cfg)
        assert rules.theoretical_rate == closed_form(cfg)
        assert rules.entries_per_protocol == closed_form_entries(cfg)


class TestIpSuffixRules:
    def test_masks_have_the_requested_bit_width(self):
        cfg = SamplingConfig(SamplingMethod.IP_SUFFIX, SamplingMode.PAIR,
                             src_size=6, dst_size=4, seed=3)
        (e,) = generate_rules(cfg).flow_entries
        assert e.match.src_ip_mask == (1 << 6) - 1
        assert e.match.dst_ip_mask == (1 << 4) - 1
        assert 0 <= e.match.src_ip <= e.match.src_ip_mask
        assert 0 <= e.match.dst_ip <= e.match.dst_ip_mask
        assert e.priority == SAMPLING_PRIORITY

    def test_matched_fraction_is_the_rate(self):
        cfg = SamplingConfig(SamplingMethod.IP_SUFFIX, src_size=4, seed=5)
        (e,) = generate_rules(cfg).flow_entries
        hits = sum(1 for ip in range(4096) if (ip & 0xF) == e.match.src_ip)
        assert hits == 4096 // 16

    def test_draw_is_seeded(self):
        a = generate_rules(SamplingConfig(SamplingMethod.IP_SUFFIX, src_size=8, seed=1))
        b = generate_rules(SamplingConfig(SamplingMethod.IP_SUFFIX, src_size=8, seed=1))
        c = generate_rules(SamplingConfig(SamplingMethod.IP_SUFFIX, src_size=8, seed=2))
        assert a.flow_entries == b.flow_entries
        values = {
            generate_rules(SamplingConfig(SamplingMethod.IP_SUFFIX,
                                          src_size=8, seed=s)).flow_entries[0].match.src_ip
            for s in range(20)
        }
        assert len(values) > 1
        assert c.theoretical_rate == a.theoretical_rate

    def test_zero_bits_means_rate_one(self):
        cfg = SamplingConfig(SamplingMethod.IP_SUFFIX, src_size=0)
        rules = generate_rules(cfg)
        assert rules.theoretical_rate == 1

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            generate_rules(SamplingConfig(SamplingMethod.IP_SUFFIX, src_size=33))


class TestPortRules:
    def test_source_mode_shares_ports_across_protocols(self):
        cfg = SamplingConfig(SamplingMethod.PORT_BASED, src_size=50, seed=9)
        rules = generate_rules(cfg)
        (tcp,) = [e.match.src_port_in for e in rules.flow_entries
                  if e.match.protocol is Protocol.TCP]
        (udp,) = [e.match.src_port_in for e in rules.flow_entries
                  if e.match.protocol is Protocol.UDP]
        assert tcp == udp
        assert len(tcp) == 50
        assert all(1 <= p <= 65535 for p in tcp)

    def test_pair_mode_builds_one_predicate_per_protocol(self):
        cfg = SamplingConfig(SamplingMethod.PORT_BASED, SamplingMode.PAIR,
                             src_size=30, dst_size=20, seed=9)
        rules = generate_rules(cfg)
        assert len(rules.flow_entries) == 2
        for e in rules.flow_entries:
            assert len(e.match.src_port_in) == 30
            assert len(e.match.dst_port_in) == 20
        assert rules.entries_per_protocol == 50

    def test_zero_ports_is_rejected(self):
        with pytest.raises(ValueError):
            generate_rules(SamplingConfig(SamplingMethod.PORT_BASED, src_size=0))
        with pytest.raises(ValueError):
            generate_rules(SamplingConfig(SamplingMethod.PORT_BASED, SamplingMode.PAIR,
                                      src_size=10, dst_size=0))


# random.sample switches from its set method to its pool method at k = 5462
# for 65,535 ports, and a pool bound's bit length drops below 16 after 32,768
# draws; 49,152 and 57,344 end the draw exactly where the bound drops to 14
# and 13 bits; the largest k leaves the pool with one port.
DRAW_EDGES = [1, 5, 6, 5461, 5462, 32767, 32768, 32769, 49152, 57344, 65534, 65535]


def _with_edge_examples(test):
    for k in DRAW_EDGES:
        test = example(seed=k, k=k)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, SEED_LIMIT - 1), k=st.integers(1, PORT_SPACE))
@_with_edge_examples
def test_port_draw_equals_random_sample(seed, k):
    """The bulk draw against random.sample itself, twice from one generator
    as pair mode draws, and the generator state it leaves behind."""
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(2):
        assert _sample_ports(ours, k) == frozenset(reference.sample(range(1, PORT_SPACE + 1), k))
    assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize(
    "cfg,message",
    [
        (SamplingConfig(SamplingMethod.PORT_BASED, src_size=PORT_SPACE + 1),
         "port counts must lie in"),
        (SamplingConfig(SamplingMethod.PORT_BASED, SamplingMode.PAIR,
                        src_size=1, dst_size=PORT_SPACE + 1), "port counts must lie in"),
        (SamplingConfig(SamplingMethod.HASH_BASED, sample_weight=0, drop_weight=1),
         "hash weights need"),
        *[(SamplingConfig(method, src_size=1, dst_size=1), "dst_size must be 0")
          for method in SamplingMethod],
    ],
)
def test_rejects_parameters_out_of_bounds(cfg, message):
    with pytest.raises(ValueError, match=message):
        generate_rules(cfg)


class TestBucketSelection:
    def group(self, *weights):
        return GroupEntry(group_id=1, buckets=tuple(
            Bucket(weight=w, actions=(OutputToController(),) if i == 0 else (Drop(),))
            for i, w in enumerate(weights)))

    def test_deterministic_in_key_and_seed(self):
        g = self.group(1, 63)
        keys = random_keys(300, 1)
        first = [select_bucket(g, k, seed=7) for k in keys]
        assert first == [select_bucket(g, k, seed=7) for k in keys]

    def test_seed_changes_the_assignment(self):
        g = self.group(1, 1)
        keys = random_keys(1000, 2)
        a = [select_bucket(g, k, seed=1) for k in keys]
        b = [select_bucket(g, k, seed=2) for k in keys]
        assert a != b

    @pytest.mark.parametrize("weights", [(1, 1), (1, 63), (3, 5)])
    def test_split_is_proportional(self, weights):
        g = self.group(*weights)
        n = 100_000
        counts = [0] * len(weights)
        for k in random_keys(n, 11):
            counts[select_bucket(g, k, seed=4)] += 1
        total_w = sum(weights)
        chi2 = sum(
            (counts[i] - n * w / total_w) ** 2 / (n * w / total_w)
            for i, w in enumerate(weights)
        )
        assert chi2 < CHI2_CRIT_DF1, (weights, counts)

    def test_index_always_valid(self):
        g = self.group(5, 2, 3)
        assert {select_bucket(g, k, seed=0) for k in random_keys(2000, 3)} == {0, 1, 2}

    @settings(max_examples=300, deadline=None)
    @given(
        buckets=st.lists(st.tuples(st.integers(-6, 6) | st.integers(-2**70, 2**70), st.booleans()),
                         min_size=1, max_size=5),
        seed=st.integers(0, SEED_LIMIT - 1),
        keys_seed=st.integers(0, 2**32),
    )
    @example(buckets=[(3, True)], seed=0, keys_seed=0)  # one bucket: no hashing
    @example(buckets=[(1, False), (0, True), (3, True), (0, False), (2, False)],
             seed=5, keys_seed=1)  # the mirror buckets follow a pass bucket
    @example(buckets=[(1, True), (1, False), (1, True)], seed=5, keys_seed=1)  # split mirrors
    @example(buckets=[(0, True), (0, False)], seed=5, keys_seed=1)  # no weight at all
    @example(buckets=[(3, True), (-2, False), (1, False)],
             seed=5, keys_seed=1)  # prefix sums dip: only their running max is sorted
    @example(buckets=[(2, True), (-2, False)], seed=5, keys_seed=1)  # weights sum to zero
    def test_key_sampler_answers_what_select_bucket_picks(self, buckets, seed, keys_seed):
        group = GroupEntry(group_id=1, buckets=tuple(
            Bucket(weight=w, actions=(OutputToController(),) if mirror else (Drop(),))
            for w, mirror in buckets))
        sampled = key_sampler(RuleSet(SamplingConfig(SamplingMethod.HASH_BASED, seed=seed),
                                      (), (group,)))
        keys = random_keys(64, keys_seed)
        assert [sampled(k) for k in keys] == [
            type(group.buckets[select_bucket(group, k, seed)].actions[0]) is OutputToController
            for k in keys]

    def hash_rules(self, *weights):
        return RuleSet(SamplingConfig(SamplingMethod.HASH_BASED), (), (self.group(*weights),))

    def test_key_sampler_of_a_group_without_buckets_raises(self):
        sampled = key_sampler(self.hash_rules())
        with pytest.raises(ValueError, match="no buckets"):
            sampled(random_keys(1, 0)[0])

    def test_key_sampler_of_one_bucket_answers_without_hashing(self, monkeypatch):
        def no_hashing(key, seed):
            raise AssertionError("a one-bucket group needs no hash")

        sampled = key_sampler(self.hash_rules(3))
        monkeypatch.setattr(sampling, "_mix64", no_hashing)
        assert all(sampled(k) for k in random_keys(64, 0))


class TestRateSolver:
    @pytest.mark.parametrize(
        "method,mode,rate,expect",
        [
            (SamplingMethod.IP_SUFFIX, SamplingMode.SOURCE_ONLY, Fraction(1, 64),
             dict(src_size=6, dst_size=0)),
            (SamplingMethod.IP_SUFFIX, SamplingMode.SOURCE_ONLY, Fraction(1, 200),
             dict(src_size=8, dst_size=0)),  # nearest power of two is 1/256
            (SamplingMethod.IP_SUFFIX, SamplingMode.PAIR, Fraction(1, 1024),
             dict(src_size=5, dst_size=5)),
            (SamplingMethod.PORT_BASED, SamplingMode.SOURCE_ONLY, Fraction(1, 200),
             dict(src_size=328, dst_size=0)),
            (SamplingMethod.PORT_BASED, SamplingMode.PAIR, Fraction(1, 200),
             dict(src_size=4634, dst_size=4634)),
            (SamplingMethod.HASH_BASED, SamplingMode.SOURCE_ONLY, Fraction(1, 200),
             dict(sample_weight=1, drop_weight=199)),
            (SamplingMethod.HASH_BASED, SamplingMode.SOURCE_ONLY, Fraction(1, 64),
             dict(sample_weight=1, drop_weight=63)),
        ],
    )
    def test_known_parameter_choices(self, method, mode, rate, expect):
        cfg = config_for_rate(method, mode, rate, seed=0)
        for field, value in expect.items():
            assert getattr(cfg, field) == value

    def test_hash_expresses_any_unit_fraction_exactly(self):
        for denom in (2, 7, 64, 200, 1024):
            cfg = config_for_rate(SamplingMethod.HASH_BASED, SamplingMode.SOURCE_ONLY,
                                  Fraction(1, denom))
            assert generate_rules(cfg).theoretical_rate == Fraction(1, denom)

    def test_hash_expresses_any_rational_rate_exactly(self):
        for q in range(1, 65):
            for p in range(1, q + 1):
                cfg = config_for_rate(SamplingMethod.HASH_BASED, SamplingMode.SOURCE_ONLY,
                                      Fraction(p, q))
                assert generate_rules(cfg).theoretical_rate == Fraction(p, q), (p, q)

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 2), Fraction(3, 2)])
    def test_rejects_rates_outside_unit_interval(self, bad):
        with pytest.raises(ValueError):
            config_for_rate(SamplingMethod.HASH_BASED, SamplingMode.SOURCE_ONLY, bad)

    def test_accepts_plain_strings(self):
        cfg = config_for_rate("port", "source", Fraction(1, 200))
        assert cfg.method is SamplingMethod.PORT_BASED
        assert cfg.src_size == 328

    @pytest.mark.parametrize("method", list(SamplingMethod))
    @pytest.mark.parametrize("mode", list(SamplingMode))
    def test_no_representable_rate_is_nearer(self, method, mode):
        # x is the target on the scale rounding is measured on; `above(s)` is
        # the sign of x - s/2 in exact integers, so candidate c is strictly
        # nearer than the chosen value iff x lies past their midpoint
        for rate in SMALL_RATES:
            p, q = rate.numerator, rate.denominator
            cfg = config_for_rate(method, mode, rate)
            if method is SamplingMethod.HASH_BASED:
                assert generate_rules(cfg).theoretical_rate == rate
                continue
            pair = mode is SamplingMode.PAIR
            if method is SamplingMethod.IP_SUFFIX:  # x = log2(1/rate) bits
                assert cfg.src_size - cfg.dst_size in (0, 1) if pair else cfg.dst_size == 0
                chosen = cfg.src_size + cfg.dst_size
                candidates = range(65 if pair else 33)

                def above(s):
                    return q * q - p * p * 2**s
            else:  # x = rate * 65535 ports, or sqrt(rate) * 65535 on each side
                assert cfg.dst_size == (cfg.src_size if pair else 0)
                chosen = cfg.src_size
                # |count - x| is convex in the count, so a count that neither
                # neighbour beats is nearest of all 1..65535
                candidates = [c for c in (chosen - 1, chosen + 1) if 1 <= c <= PORT_SPACE]

                def above(s):
                    if pair:
                        return 4 * PORT_SPACE**2 * p - s * s * q
                    return 2 * PORT_SPACE * p - s * q
            for c in candidates:
                sign = above(c + chosen)
                assert not (sign < 0 if c < chosen else sign > 0 if c > chosen else False), (
                    rate, chosen, c)

    def test_tiny_rate_clamps_the_suffix(self):
        tiny = Fraction("1e-400")  # 1/rate overflows a float
        assert config_for_rate("ip-suffix", "source", tiny).src_size == 32
        pair = config_for_rate("ip-suffix", "pair", tiny)
        assert (pair.src_size, pair.dst_size) == (32, 32)


class TestSeedDerivation:
    def test_deterministic_and_sensitive_to_every_part(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        seen = {derive_seed(1, "a", 2), derive_seed(1, "a", 3),
                derive_seed(1, "b", 2), derive_seed(2, "a", 2)}
        assert len(seen) == 4

    def test_streams_do_not_collide_over_many_trials(self):
        seeds = {derive_seed(99, trial) for trial in range(10_000)}
        assert len(seeds) == 10_000

    @pytest.mark.parametrize("seed", [0, 1, SEED_LIMIT - 1])
    def test_a_seed_in_range_is_kept(self, seed):
        assert check_seed(seed) == seed

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT, -(2**70), 2**70])
    def test_a_seed_out_of_range_is_rejected(self, seed):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            check_seed(seed)

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT])
    def test_a_config_seed_out_of_range_is_rejected(self, seed):
        # random.Random keys on |seed|: -5 would draw seed 5's ports
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            SamplingConfig(SamplingMethod.PORT_BASED, src_size=10, seed=seed)
