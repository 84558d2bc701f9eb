"""The per-slot packed reader, kept as the reference for
``knotpair.laurent.unpack``, which reads the slots through
``memoryview.cast``: the biased value is cut into bytes, each slot's bytes
become one int by ``int.from_bytes``, and the bias is taken off again.
"""

from itertools import compress, repeat
from operator import sub


def unpack(value: int, width: int, slots: int,
           low: int, stride: int) -> tuple[tuple[int, int], ...]:
    """Sorted nonzero terms of sum(c_i * 2^(8 * width * i)), slot i holding
    the coefficient of exponent low + i * stride, each |c_i| < 2^(8 * width - 1)."""
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    data = (value + bias).to_bytes(slots * width, "little")
    # zip over one iterator cuts the bytes into width-byte tuples
    values = map(int.from_bytes, zip(*[iter(data)] * width), repeat("little"))
    coeffs = list(map(sub, values, repeat(1 << (8 * width - 1))))
    exps = range(low, low + slots * stride, stride)
    return tuple(compress(zip(exps, coeffs), coeffs))
