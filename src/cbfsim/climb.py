"""``find_complementary_set``'s stochastic search, a climb in refilled lockstep slots."""

import numpy as np

from .beams import (_CLIMB_BLOCK, _CLIMB_MOVES, _SCREEN_SLACK, SearchMeta, _exact_variances,
                    _lag_features, _settle)


def stochastic(geometry, levels, seed, budget, form, power):
    if budget < 1:
        raise ValueError("stochastic search needs a positive budget")
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2 ** 63))
    rng = np.random.default_rng(seed)
    ns, k, group_size = geometry.subarray_size, len(levels), geometry.num_subarrays
    n, lags, size = _CLIMB_BLOCK, ns - 1, group_size * (2 * ns - 1) + ns - 1
    # Move s*k + l sets coefficient slot s to level l; a round scores `span` slots
    # of `reach` levels.  Member m's weights are w[m*(2ns-1) + ns-1 + p], zero
    # between members, so adding a + jb to w[i] adds a*u + b*v to the lag features
    # x, u and v being w[i+l] + conj(w[i-l]) and j*(conj(w[i-l]) - w[i+l]).  `lift`
    # maps the window w[i-ns+1 .. i+ns-1] to [uL, vL] for the y = xL kept (C = LL^T).
    reach, span = min(k, _CLIMB_MOVES), max(1, _CLIMB_MOVES // k)
    member, pos = (a.ravel() for a in np.indices((group_size, lags)))
    num_moves, flat = member.size * k, member * ns + pos + 1
    at = np.append(member * (2 * ns - 1) + ns + pos, np.full(span, lags))  # padding never moves
    offsets = (k * np.arange(span)[:, None] + np.arange(reach)).ravel()
    upper, (root, lift) = (offsets[:, None] <= offsets) * 1.0, _climb_form(form, ns)

    def prepared(starts):
        y = sum(_lag_features(levels[starts[:, m]]) for m in range(group_size)) @ root
        return starts, y, np.einsum("ij,ij->i", y, y)

    def climb(r, left):
        """One round of slots r, a near-tie decided exactly; returns evaluations spent."""
        st, cr, s0 = start[r], cur[r], start[r] // k
        move = (st if k > reach else s0 * k)[:, None] + offsets
        stop, i = np.minimum((s0 + span) * k, num_moves), at[s0[:, None] + np.arange(span)]
        delta = levels[move % k].reshape(i.shape + (reach,)) - w[r[:, None], i][..., None]
        todo = (delta != 0).reshape(move.shape) & (move >= st[:, None]) & (move < stop[:, None])
        todo &= (rank := todo @ upper) <= left[:, None]
        for lo, hi in (0, r.size // 2), (r.size // 2, r.size):  # half the windows at once
            np.matmul(win[r[lo:hi, None], i[lo:hi] - lags].view(float).reshape(-1, 4 * ns - 2),
                      lift, out=g[lo * span:hi * span])
        gr = g[:r.size * span].reshape(i.shape + (2, 2 * lags))
        sq, lin = np.einsum("rsaf,rsaf->rsa", gr, gr), np.einsum("rsaf,rf->rsa", gr, 2 * y[r])
        a, b, uv = delta.real, delta.imag, np.einsum("rsf,rsf->rs", gr[:, :, 0], gr[:, :, 1])
        score = a * (lin[..., :1] + a * sq[..., :1] + 2 * b * uv[..., None])
        score = (score + b * (lin[..., 1:] + b * sq[..., 1:])).reshape(move.shape) + cr[:, None]
        near, low = todo & (score < cr[:, None] + _SCREEN_SLACK), cr - _SCREEN_SLACK
        rows, h, width = np.arange(r.size), near.argmax(axis=1), move.shape[1]
        hit = (first := near[rows, h]) & (score[rows, h] <= low)
        for j in np.flatnonzero(first & ~hit):
            sure = np.append(np.flatnonzero(near[j] & (score[j] <= low[j])), width)
            tie = np.flatnonzero(near[j, :sure[0]])
            alt = np.repeat(state[r[j]].reshape(1, -1), tie.size + 1, axis=0)
            alt[np.arange(1, tie.size + 1), flat[move[j, tie] // k]] = move[j, tie] % k
            now, *var = _exact_variances(power, alt.reshape(-1, group_size, ns).tolist())
            h[j] = next((t for t, v in zip(tie, var) if v < now), sure[0])
            hit[j] = h[j] < width
        pick = np.where(hit, h, width - 1)
        start[r] = np.where(hit, move[rows, pick] + 1, np.minimum(move[:, -1] + 1, stop))
        (hr,), j, h = np.nonzero(hit), r[hit], h[hit]
        (c, lv), dd = np.divmod(move[hr, h], k), delta.reshape(move.shape)[hr, h, None]
        state.reshape(n, -1)[j, flat[c]], w[j, at[c]] = lv, levels[lv]
        y[j] += dd.real * gr[hr, h // reach, 0] + dd.imag * gr[hr, h // reach, 1]
        cur[j], improved[j] = score[hr, h], True
        return np.minimum(rank[rows, pick], left)

    state = np.zeros((n, group_size, ns), int)
    queue, more, g = prepared(state[:0]), True, np.empty((n * span, 4 * lags))
    w, y, cur = np.zeros((n, size), complex), np.zeros((n, 2 * lags)), np.zeros(n)
    coeffs = w[:, lags:].reshape(n, group_size, -1)[..., :ns]
    win = np.lib.stride_tricks.sliding_window_view(w, 2 * ns - 1, axis=1)
    start, improved, slot = np.zeros(n, int), np.zeros(n, bool), np.full(n, -1)
    # Evaluations, start and end states, and end scores of restarts not yet counted.
    book, log, last = np.zeros(0), np.zeros((0, 2, group_size, ns), int), cur[:0]
    base, spent, least, best, kept = 0, 0, np.inf, (np.inf, None), []
    while spent < budget:
        if (free := np.flatnonzero(slot < 0)).size and spent + book.sum() < budget:
            if len(queue[0]) < free.size and more:
                draws = [rng.integers(0, k, lags) for _ in range(n * group_size)]
                draws = np.insert(np.reshape(draws, (n, group_size, lags)), 0, 0, axis=2)
                queue = tuple(map(np.concatenate, zip(queue, prepared(draws))))
            new = free[:len(queue[0])]
            (begin, y[new], cur[new]), queue = zip(*(np.split(q, [new.size]) for q in queue))
            state[new], coeffs[new], start[new], improved[new] = begin, levels[begin], 0, False
            slot[new], last = base + book.size + np.arange(new.size), np.append(last, cur[new])
            book, log = np.r_[book, np.ones(new.size)], np.r_[log, state[new, None][:, [0, 0]]]
        # A sweep that improved starts again, else the climb ends, as one does once the
        # restarts up to it, in order, spend the budget; the first past it re-climbs.
        spend = spent + np.cumsum(book)
        left, end = budget - spend.take(slot - base, mode="clip"), start >= num_moves
        go = (slot >= 0) & (left > 0) & (improved | ~end)
        start[end & improved], improved[end] = 0, False
        if (out := np.flatnonzero((slot >= 0) & ~go)).size:
            log[(e := slot[out] - base), 1], last[e], slot[out] = state[out], cur[out], -1
        if spend[-1] > budget:
            if spend[j := np.argmax(spend > budget)] - book[j] < budget:
                queue, more = prepared(log[j, 0, None]), False
            book, log, last = book[:j], log[:j], last[:j]
        # Ended restarts count in order; each step lowers the exact variance, so ends settle.
        r = np.flatnonzero(go)
        while base < slot[r].min(initial=base + book.size) and spent < budget:
            spent, least = spent + int(book[0]), min(least, last[0])
            if last[0] <= least + _SCREEN_SLACK:
                kept.append((log[0, 1].tolist(), last[0]))
            book, log, last, base = book[1:], log[1:], last[1:], base + 1
        if spent >= budget or len(kept) >= n:
            best = _settle(power, best, [e for e, s in kept if s <= least + _SCREEN_SLACK])
            kept = []
        book[slot[r] - base] += climb(r, left[r])
    return tuple(map(tuple, best[1])), SearchMeta("stochastic", budget, seed)


def _climb_form(form, ns):
    """(L, lift): C = L L^T by pivoted Cholesky, as LAPACK adds RSS; [uL, vL] per window."""
    rest, root = form.copy(), np.zeros_like(form)
    for col in range(len(form)):
        if rest[i := rest.diagonal().argmax(), i] > 1e-15 * form.diagonal().max():
            root[:, col] = rest[:, i] / np.sqrt(rest[i, i])
            rest -= np.outer(root[:, col], root[:, col])
    unit = np.kron(np.eye(2 * ns - 1), [[1], [1j]])
    a, b = unit[:, ns:], unit[:, :ns - 1][:, ::-1].conj()
    return root, np.hstack([np.hstack((z.real, z.imag)) @ root for z in (a + b, 1j * (b - a))])
