# cython: language_level=3
"""Compiled word kernels: the hot path twin of _purekernels.

Returns identical outputs to _purekernels by another matcher: each
letter scans the bucket of rules whose lhs ends in it, in rule order.
Since len(rhs) <= len(lhs) for every rule, the output and pending
stacks never outgrow the input, so both buffers are allocated once.
"""

from libc.stdlib cimport free, malloc
from libc.string cimport memcmp, memcpy


cdef class RuleIndex:
    cdef int num_symbols
    cdef public int num_rules
    cdef int* bstart      # num_symbols + 1 offsets into the rule arrays
    cdef int* lhs_off
    cdef int* lhs_len
    cdef int* rhs_off
    cdef int* rhs_len
    cdef int* lhs_data
    cdef int* rhs_data    # reversed, ready to append to the pending stack

    def __dealloc__(self):
        free(self.bstart)
        free(self.lhs_off)
        free(self.lhs_len)
        free(self.rhs_off)
        free(self.rhs_len)
        free(self.lhs_data)
        free(self.rhs_data)


def build_index(rules, int num_symbols):
    """Bucket (lhs, rhs) pairs by the last letter of lhs, in rule order."""
    cdef list buckets = [[] for _ in range(num_symbols)]
    for lhs, rhs in rules:
        if not lhs:
            raise ValueError("rule with empty lhs")
        # no negative indexing: the module compiles with wraparound off
        buckets[lhs[len(lhs) - 1]].append((list(lhs), list(reversed(rhs))))

    cdef RuleIndex index = RuleIndex()
    index.num_symbols = num_symbols
    cdef int num_rules = 0
    cdef Py_ssize_t lhs_total = 0, rhs_total = 0
    for bucket in buckets:
        for l, r in bucket:
            num_rules += 1
            lhs_total += len(l)
            rhs_total += len(r)
    index.num_rules = num_rules
    index.bstart = <int*> malloc((num_symbols + 1) * sizeof(int))
    index.lhs_off = <int*> malloc(max(num_rules, 1) * sizeof(int))
    index.lhs_len = <int*> malloc(max(num_rules, 1) * sizeof(int))
    index.rhs_off = <int*> malloc(max(num_rules, 1) * sizeof(int))
    index.rhs_len = <int*> malloc(max(num_rules, 1) * sizeof(int))
    index.lhs_data = <int*> malloc(max(lhs_total, 1) * sizeof(int))
    index.rhs_data = <int*> malloc(max(rhs_total, 1) * sizeof(int))
    if (index.bstart == NULL or index.lhs_off == NULL
            or index.lhs_len == NULL or index.rhs_off == NULL
            or index.rhs_len == NULL or index.lhs_data == NULL
            or index.rhs_data == NULL):
        raise MemoryError()

    cdef int ri = 0
    cdef Py_ssize_t lpos = 0, rpos = 0
    cdef int sym, v
    for sym in range(num_symbols):
        index.bstart[sym] = ri
        for l, r in buckets[sym]:
            index.lhs_off[ri] = <int> lpos
            index.lhs_len[ri] = <int> len(l)
            for v in l:
                index.lhs_data[lpos] = v
                lpos += 1
            index.rhs_off[ri] = <int> rpos
            index.rhs_len[ri] = <int> len(r)
            for v in r:
                index.rhs_data[rpos] = v
                rpos += 1
            ri += 1
    index.bstart[num_symbols] = ri
    return index


def reduce_word(RuleIndex index, word):
    cdef Py_ssize_t total = len(word)
    if total == 0:
        return ()
    cdef int* out = <int*> malloc(total * sizeof(int))
    cdef int* pend = <int*> malloc(total * sizeof(int))
    if out == NULL or pend == NULL:
        free(out)
        free(pend)
        raise MemoryError()
    cdef Py_ssize_t out_n = 0, pend_n = 0, i
    cdef int x, ri, n, rl
    try:
        for i in range(total - 1, -1, -1):
            pend[pend_n] = word[i]
            pend_n += 1
        while pend_n:
            pend_n -= 1
            x = pend[pend_n]
            out[out_n] = x
            out_n += 1
            for ri in range(index.bstart[x], index.bstart[x + 1]):
                n = index.lhs_len[ri]
                if n <= out_n and memcmp(
                        out + out_n - n,
                        index.lhs_data + index.lhs_off[ri],
                        n * sizeof(int)) == 0:
                    out_n -= n
                    rl = index.rhs_len[ri]
                    memcpy(pend + pend_n,
                           index.rhs_data + index.rhs_off[ri],
                           rl * sizeof(int))
                    pend_n += rl
                    break
        return tuple([out[i] for i in range(out_n)])
    finally:
        free(out)
        free(pend)


def free_reduce_word(word):
    cdef Py_ssize_t total = len(word)
    if total == 0:
        return ()
    cdef int* out = <int*> malloc(total * sizeof(int))
    if out == NULL:
        raise MemoryError()
    cdef Py_ssize_t out_n = 0, i
    cdef int x
    try:
        for i in range(total):
            x = word[i]
            if out_n and out[out_n - 1] == (x ^ 1):
                out_n -= 1
            else:
                out[out_n] = x
                out_n += 1
        return tuple([out[i] for i in range(out_n)])
    finally:
        free(out)
