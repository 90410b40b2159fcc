"""The byte form of the mining spread, kept as a test oracle.

Mining once held a flag per sign word as one byte and spread a size n-1
shape's flags to the 2^n words of size n by copying bytes: word s reads
flag ``(s >> L+1) << L | s & (2^L - 1)``, so each run of 2^L flags is
doubled.  It shares nothing with the library's int spread.
"""


def spread(flags: bytes, L: int) -> bytes:
    """``flags`` with each run of 2^L bytes doubled, by 2^(n-1-L) chunk
    copies or by 2^(L+1) strided slice assignments, whichever are fewer."""
    step = 1 << L
    if 2 * step >= len(flags) // step:
        return b"".join(flags[i : i + step] * 2 for i in range(0, len(flags), step))
    out = bytearray(2 * len(flags))
    for low in range(step):
        out[low :: 2 * step] = out[step + low :: 2 * step] = flags[low::step]
    return bytes(out)
