"""Flow-sampling rule generators and their exact sampling rates.

Three ways to pick which flows get mirrored to the controller:

* ip-suffix: one wildcarded entry matching the low bits of the address(es);
  a flow is sampled iff its address suffix equals the drawn value.
* port: one entry per protocol (TCP and UDP) matching the drawn port set(s);
  a flow is sampled iff its port (or port pair) was drawn.  A hardware
  switch would pay one entry per drawn port, which RuleSet reads off the
  drawn sets.
* hash: a select group splits flows between a controller-mirror bucket and a
  pass bucket in proportion to the bucket weights, keyed on the 5-tuple.

Rates are carried as exact fractions, never floats.
"""

import enum
import functools
import hashlib
import math
import random
import struct
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import Callable

from .model import FlowKey, Protocol, check_seed
from .switch import (
    Bucket,
    Drop,
    FlowEntry,
    GotoTable,
    Group,
    GroupEntry,
    MatchFields,
    OutputToController,
    SAMPLING_PRIORITY,
)

PORT_SPACE = 65535  # sampled ports are drawn from 1..65535; 0 is reserved
HASH_GROUP_ID = 1
_WORDS = 1024  # generator outputs the pool method draws at a time, as it needs them
_SAMPLE_THEN_FORWARD = (OutputToController(), GotoTable())


class SamplingMethod(enum.Enum):
    IP_SUFFIX = "ip-suffix"
    PORT_BASED = "port"
    HASH_BASED = "hash"


class SamplingMode(enum.Enum):
    SOURCE_ONLY = "source"
    PAIR = "pair"


@dataclass(frozen=True)
class SamplingConfig:
    """Parameters for one rule-set draw.

    src_size/dst_size mean suffix bits for IP_SUFFIX and number of drawn
    ports for PORT_BASED; dst_size stays 0 in SOURCE_ONLY mode.  The bucket
    weights only apply to HASH_BASED.  The seed fixes every random choice:
    the drawn suffixes, the drawn port sets and the hash keying.
    """

    method: SamplingMethod
    mode: SamplingMode = SamplingMode.SOURCE_ONLY
    src_size: int = 0
    dst_size: int = 0
    sample_weight: int = 1
    drop_weight: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", SamplingMethod(self.method))
        object.__setattr__(self, "mode", SamplingMode(self.mode))
        check_seed(self.seed)


@dataclass(frozen=True)
class RuleSet:
    """Generated table-0 block-2 content.

    The port method generates one composite entry per protocol in both modes:
    the drawn source set, plus the drawn destination set in pair mode.  The
    exact rate and the entry cost are read off these rules, never stored.
    """

    config: SamplingConfig
    flow_entries: tuple[FlowEntry, ...]
    groups: tuple[GroupEntry, ...] = ()

    @property
    def theoretical_rate(self) -> Fraction:
        """The exact sampling rate, read off the masks, port sets and bucket weights."""
        if self.groups:
            buckets = self.groups[0].buckets
            mirror = sum(b.weight for b in buckets if _mirrors(b))
            return Fraction(mirror, sum(b.weight for b in buckets))
        match = self.flow_entries[0].match
        if match.src_port_in is not None:
            if match.dst_port_in is None:
                return Fraction(len(match.src_port_in), PORT_SPACE)
            return Fraction(
                len(match.src_port_in) * len(match.dst_port_in), PORT_SPACE * PORT_SPACE
            )
        bits = 0
        if match.src_ip is not None:
            bits += match.src_ip_mask.bit_count()
        if match.dst_ip is not None:
            bits += match.dst_ip_mask.bit_count()
        return Fraction(1, 1 << bits)

    @property
    def entries_per_protocol(self) -> int:
        """The flow-table cost a hardware switch would pay per transport protocol.

        For the port method that is one entry per drawn port: the two-stage
        src-then-dst check costs src + dst in pair mode, not the src x dst
        cross-product.  The other methods generate a single entry.
        """
        match = self.flow_entries[0].match
        if match.src_port_in is None:
            return 1
        return len(match.src_port_in) + len(match.dst_port_in or ())


def _mix64(key: FlowKey, seed: int) -> int:
    """Keyed 64-bit hash of the 5-tuple with avalanche behavior."""
    payload = struct.pack(
        ">IIHHBQ",
        key.src_ip,
        key.dst_ip,
        key.src_port,
        key.dst_port,
        int(key.protocol),
        seed & 0xFFFFFFFFFFFFFFFF,
    )
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def derive_seed(master: int, *parts: int | str) -> int:
    """Counter-based seed split: independent streams per (master, parts)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack(">Q", master & 0xFFFFFFFFFFFFFFFF))
    for part in parts:
        if isinstance(part, int):
            h.update(b"i" + struct.pack(">q", part))
        else:
            h.update(b"s" + part.encode())
    return int.from_bytes(h.digest(), "big")


def select_bucket(group: GroupEntry, key: FlowKey, seed: int) -> int:
    """Pick a select-group bucket for a flow, weight-proportionally.

    Deterministic in (key, seed) and blind to everything else, so every
    packet of a flow lands in the same bucket regardless of arrival order.
    """
    buckets = group.buckets
    if not buckets:
        raise ValueError(f"group {group.group_id} has no buckets")
    if len(buckets) == 1:
        return 0
    total = sum(b.weight for b in buckets)
    point = (_mix64(key, seed) * total) >> 64
    acc = 0
    for i, bucket in enumerate(buckets):
        acc += bucket.weight
        if point < acc:
            return i
    return len(buckets) - 1


def _ip_suffix_rules(config: SamplingConfig) -> RuleSet:
    """One wildcarded entry matching drawn low address bits; zero total bits
    matches every flow."""
    bits_src = config.src_size
    bits_dst = config.dst_size
    if not (0 <= bits_src <= 32 and 0 <= bits_dst <= 32):
        raise ValueError("suffix bit counts must lie in [0, 32]")
    rng = random.Random(config.seed)
    fields: dict = {}
    if bits_src > 0:
        fields["src_ip"] = rng.randrange(1 << bits_src)
        fields["src_ip_mask"] = (1 << bits_src) - 1
    if bits_dst > 0:
        fields["dst_ip"] = rng.randrange(1 << bits_dst)
        fields["dst_ip_mask"] = (1 << bits_dst) - 1
    entry = FlowEntry(
        match=MatchFields(**fields),
        priority=SAMPLING_PRIORITY,
        actions=_SAMPLE_THEN_FORWARD,
    )
    return RuleSet(config, (entry,))


def _high_halves(rng: random.Random, words: int) -> array:
    """The high 16 bits of rng's next `words` 32-bit outputs, in draw order.

    getrandbits(32 * words) fills its result from the least significant
    32 bits up, one Mersenne Twister output each, and getrandbits(b) for
    b <= 16 is the next output's high 16 bits shifted right by 16 - b.
    """
    halves = array("H", rng.getrandbits(32 * words).to_bytes(4 * words, "little"))
    if sys.byteorder == "big":
        halves.byteswap()
    return halves[1::2]


@functools.cache
def _port_pool() -> tuple[int, ...]:
    """The sampled port space, built on first use: a module-level copy would
    cost every process that never draws a port set about 2 MB."""
    return tuple(range(1, PORT_SPACE + 1))


def _sample_ports(rng: random.Random, k: int) -> frozenset[int]:
    """frozenset(rng.sample(range(1, PORT_SPACE + 1), k)) for 1 <= k <= PORT_SPACE,
    with rng left in the same state.

    random.sample draws each index with randbelow(bound): getrandbits of the
    bound's bit length, redrawn while it is not below the bound, one output
    per try.  This replays that on outputs drawn in bulk, then rewinds rng
    and consumes exactly the outputs random.sample used.
    """
    n = PORT_SPACE
    state = rng.getstate()
    setsize = 21  # random.sample's choice between its two methods, made as it makes it
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        # pool method: step i swaps the index drawn below bound n - i to the pool's end
        pool = list(_port_pool())
        last, stop, used = n - 1, n - k - 1, k  # each rejected try adds one
        bits = n.bit_length()  # the bound last + 1 keeps this bit length down to last == end
        shift, end = 16 - bits, max(stop, (1 << (bits - 1)) - 2)
        for h in chain.from_iterable(map(_high_halves, repeat(rng), repeat(_WORDS))):
            j = h >> shift
            if j > last:
                used += 1
                continue
            pool[j], pool[last] = pool[last], pool[j]
            last -= 1
            if last == end:
                if last == stop:
                    break
                shift += 1
                end = max(stop, (end >> 1) - 1)
        drawn = frozenset(pool[n - k:])
    else:
        # set method: the first k distinct indices, n itself rejected
        halves = array("H")
        while True:
            halves += _high_halves(rng, k + k // 8 + 32)
            distinct = dict.fromkeys(halves)
            distinct.pop(n, None)
            if len(distinct) >= k:
                break
        indices = list(distinct)[:k]
        used = halves.index(indices[-1]) + 1
        drawn = frozenset(map((1).__add__, indices))
    rng.setstate(state)
    rng.getrandbits(32 * used)
    return drawn


def _port_rules(config: SamplingConfig) -> RuleSet:
    """One composite entry per protocol (TCP and UDP) for src_size drawn
    source ports, and in pair mode dst_size drawn destination ports too."""
    m = config.src_size
    n = config.dst_size
    if not (0 <= m <= PORT_SPACE and 0 <= n <= PORT_SPACE):
        raise ValueError(f"port counts must lie in [0, {PORT_SPACE}]")
    pair = config.mode is SamplingMode.PAIR
    if m == 0 or (pair and n == 0):
        raise ValueError("port sampling needs at least one port on every matched side")
    rng = random.Random(config.seed)
    src_set = _sample_ports(rng, m)
    dst_set = _sample_ports(rng, n) if pair else None
    entries = tuple(
        FlowEntry(
            match=MatchFields(protocol=proto, src_port_in=src_set, dst_port_in=dst_set),
            priority=SAMPLING_PRIORITY,
            actions=_SAMPLE_THEN_FORWARD,
        )
        for proto in (Protocol.TCP, Protocol.UDP)  # same drawn sets for both
    )
    return RuleSet(config, entries)


def _hash_rules(config: SamplingConfig) -> RuleSet:
    """All traffic through a select group: one mirror bucket, one pass bucket.

    The flow entry keeps the forwarding goto itself; the group only decides
    the controller copy.
    """
    if config.sample_weight < 1 or config.drop_weight < 0:
        raise ValueError("hash weights need sample_weight >= 1 and drop_weight >= 0")
    buckets = [Bucket(weight=config.sample_weight, actions=(OutputToController(),))]
    if config.drop_weight > 0:
        buckets.append(Bucket(weight=config.drop_weight, actions=(Drop(),)))
    group = GroupEntry(group_id=HASH_GROUP_ID, buckets=tuple(buckets))
    entry = FlowEntry(
        match=MatchFields(),
        priority=SAMPLING_PRIORITY,
        actions=(Group(HASH_GROUP_ID), GotoTable()),
    )
    return RuleSet(config, (entry,), (group,))


_GENERATORS = {
    SamplingMethod.IP_SUFFIX: _ip_suffix_rules,
    SamplingMethod.PORT_BASED: _port_rules,
    SamplingMethod.HASH_BASED: _hash_rules,
}


def generate_rules(config: SamplingConfig) -> RuleSet:
    """The rule set for config.method; each method checks its own parameters."""
    if config.mode is SamplingMode.SOURCE_ONLY and config.dst_size != 0:
        raise ValueError("dst_size must be 0 in source-only mode")
    return _GENERATORS[config.method](config)


def _mirrors(bucket: Bucket) -> bool:
    """Whether a select-group bucket copies the packet to the controller."""
    return any(type(a) is OutputToController for a in bucket.actions)


def key_sampler(rule_set: RuleSet) -> Callable[[FlowKey], bool]:
    """A predicate: whether table 0 mirrors a flow's packets to the controller.

    Every method decides per 5-tuple: the flow entries test address bits or
    ports, and the select group hashes the key with the rule set's seed.  So
    a flow's every packet is sampled or none is, and the answer can be read
    off the rules without replaying a packet.
    """
    if rule_set.groups:
        group, seed = rule_set.groups[0], rule_set.config.seed
        mirror = [_mirrors(b) for b in group.buckets]
        if len(mirror) < 2:  # select_bucket picks without hashing, or raises for no bucket
            return lambda key: mirror[select_bucket(group, key, seed)]
        # select_bucket's rule: the first bucket whose running weight exceeds
        # the point, else the last; the running max keeps negative weights in step
        bounds = list(accumulate(accumulate(b.weight for b in group.buckets[:-1]), max))
        total = sum(b.weight for b in group.buckets)
        return lambda key: mirror[bisect_right(bounds, (_mix64(key, seed) * total) >> 64)]
    matchers = [entry.match.matches for entry in rule_set.flow_entries]

    def sampled(key: FlowKey) -> bool:
        for matches in matchers:
            if matches(key):
                return True
        return False

    return sampled


def config_for_rate(
    method: SamplingMethod,
    mode: SamplingMode,
    target_rate: Fraction,
    seed: int = 0,
) -> SamplingConfig:
    """Nearest representable parameters for a requested sampling rate.

    Suffixes quantize to powers of two and ports to 1/65535 steps, so their
    realized rate can differ from the target; read it back off the generated
    RuleSet.  Hash realizes any rational p/q exactly, as weights p : q-p.
    """
    method = SamplingMethod(method)
    mode = SamplingMode(mode)
    if not 0 < target_rate <= 1:
        raise ValueError(f"sampling rate must lie in (0, 1], got {target_rate}")
    rate = Fraction(target_rate)
    if method is SamplingMethod.IP_SUFFIX:
        # log2 of each part, since 1/rate can overflow a float
        bits = round(math.log2(rate.denominator) - math.log2(rate.numerator))
        if mode is SamplingMode.PAIR:
            bits = min(bits, 64)
            src, dst = (bits + 1) // 2, bits // 2
        else:
            src, dst = min(bits, 32), 0
        return SamplingConfig(method=method, mode=mode, src_size=src, dst_size=dst, seed=seed)
    if method is SamplingMethod.PORT_BASED:
        if mode is SamplingMode.PAIR:
            count = round(math.sqrt(float(target_rate)) * PORT_SPACE)
            count = min(max(count, 1), PORT_SPACE)
            return SamplingConfig(method=method, mode=mode, src_size=count, dst_size=count, seed=seed)
        count = min(max(round(float(target_rate) * PORT_SPACE), 1), PORT_SPACE)
        return SamplingConfig(method=method, mode=mode, src_size=count, seed=seed)
    return SamplingConfig(
        method=method,
        mode=mode,
        sample_weight=rate.numerator,
        drop_weight=rate.denominator - rate.numerator,
        seed=seed,
    )
