"""Pure-Python SplitMix64: the independent oracle for the package's RNG.

Every value is a Python int reduced with `& MASK`, so nothing here shares
numpy's uint64 arithmetic with `couplesim.rng`. The constants and the
finalizer are those of Steele, Lea and Flood's SplitMix64 (OOPSLA 2014):

  mix(z) = z3 ^ (z3 >> 31), z3 = (z2 ^ (z2 >> 27)) * M2, z2 = (z ^ (z >> 30)) * M1

Draw number c of stream s is mix(s + GAMMA * (c + 1)); its top 53 bits k
give the uniform double k * 2**-53. A stream seed hashes a master seed and
indices: h = mix(master + GAMMA), then h = mix(h ^ mix(index + GAMMA)) per
index, every sum taken modulo 2**64.
"""

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
M1 = 0xBF58476D1CE4E5B9
M2 = 0x94D049BB133111EB


def mix(z: int) -> int:
    """The SplitMix64 finalizer of z mod 2**64."""
    z &= MASK
    z = ((z ^ (z >> 30)) * M1) & MASK
    z = ((z ^ (z >> 27)) * M2) & MASK
    return z ^ (z >> 31)


def draw_bits(seed: int, counter: int) -> int:
    """The integer k in [0, 2**53) of draw `counter` on stream `seed`."""
    return mix(seed + GAMMA * (counter + 1)) >> 11


def draw_uniform(seed: int, counter: int) -> float:
    """Draw `counter` on stream `seed` as the double k * 2**-53 in [0, 1)."""
    return draw_bits(seed, counter) * 2.0**-53


def stream_seed(master: int, *indices: int) -> int:
    """The stream seed of a master seed and integer indices (any sign or size)."""
    h = mix(master + GAMMA)
    for index in indices:
        h = mix(h ^ mix(index + GAMMA))
    return h
