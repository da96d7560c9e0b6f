"""``find_complementary_set``'s stochastic search, a climb in refilled lockstep slots."""

import numpy as np

from .beams import _SCREEN_SLACK, SearchMeta, _lag_features, _settle

_CLIMB_BLOCK = 128  # lockstep slots of the stochastic climb, refilled in restart order
_CLIMB_MOVES = 16  # moves per slot a round, shared among the restarts climbing


def stochastic(geometry, levels, seed, budget, form, exact):
    if budget < 1:
        raise ValueError("stochastic search needs a positive budget")
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2 ** 63))
    rng = np.random.default_rng(seed)
    ns, k, group_size = geometry.subarray_size, len(levels), geometry.num_subarrays
    n, lags, size = _CLIMB_BLOCK, ns - 1, group_size * (2 * ns - 1) + ns - 1
    # Move s*k + l sets coefficient slot s to level l; a round shares `total` moves among
    # the restarts climbing, `span` slots of `reach` levels each.  Member m's weights are
    # w[m*(2ns-1) + ns-1 + p], zero between members, so adding a + jb to w[i] adds a*u +
    # b*v to the lag features x, u and v being w[i+l] + conj(w[i-l]) and j*(conj(w[i-l]) -
    # w[i+l]); `lift` maps the window w[i-ns+1 .. i+ns-1] to [uL, vL] for y = xL (C = LL^T).
    member, pos = (a.ravel() for a in np.indices((group_size, lags)))
    num_moves, flat, total = member.size * k, member * ns + pos + 1, n * _CLIMB_MOVES
    at = np.append(member * (2 * ns - 1) + ns + pos, np.full_like(member, lags))  # never moves
    root, lift = _climb_form(form, ns)

    def climb(r, left):
        """One round of slots r, a near-tie decided exactly; returns evaluations spent."""
        reach, span = min(k, per := total // max(r.size, 1)), max(1, min(member.size, per // k))
        offsets = (k * np.arange(span)[:, None] + np.arange(reach)).ravel()
        st, cr, s0 = start[r], cur[r], start[r] // k
        move = (st if k > reach else s0 * k)[:, None] + offsets
        stop, i = np.minimum((s0 + span) * k, num_moves), at[s0[:, None] + np.arange(span)]
        delta = levels[move % k].reshape(i.shape + (reach,)) - w[r[:, None], i][..., None]
        todo = (delta != 0).reshape(move.shape) & (move >= st[:, None]) & (move < stop[:, None])
        todo &= (rank := todo.cumsum(axis=1, dtype=float)) <= left[:, None]
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
            now, *var = exact(alt.reshape(-1, group_size, ns).tolist())
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

    state, g = np.zeros((n, group_size, ns), int), np.empty((max(n, total // k), 4 * lags))
    w, y, cur = np.zeros((n, size), complex), np.zeros((n, 2 * lags)), np.zeros(n)
    coeffs = w[:, lags:].reshape(n, group_size, -1)[..., :ns]
    win = np.lib.stride_tricks.sliding_window_view(w, 2 * ns - 1, axis=1)
    start, improved, slot = np.zeros(n, int), np.zeros(n, bool), np.full(n, -1)
    # A ring of 2n restarts base..drawn, assigned up to top (those climbing, a drawn block):
    # evaluations, start states, features and scores, end scores, near-least end states.
    book, last, feats = np.zeros(cap := 2 * n), np.zeros(cap), np.zeros((cap, 2 * lags + 1))
    log, ends, base, top, drawn = np.zeros((cap, group_size, ns), int), [None] * cap, 0, 0, 0
    more, spent, least, best, kept = True, 0, np.inf, (np.inf, None), []
    while spent < budget:
        if (free := np.flatnonzero(slot < 0)).size and spent + book.sum() < budget:
            if drawn - top < free.size and more and drawn + n - base <= cap:
                draws = [rng.integers(0, k, lags) for _ in range(n * group_size)]
                e = (drawn + np.arange(n)) % cap
                log[e] = np.insert(np.reshape(draws, (n, group_size, lags)), 0, 0, axis=2)
                f = sum(_lag_features(levels[log[e, m]]) for m in range(group_size)) @ root
                feats[e, :-1], feats[e, -1], drawn = f, np.einsum("ij,ij->i", f, f), drawn + n
            new, e = free[:drawn - top], np.arange(top, drawn)[:free.size]
            slot[new], top, e = e, top + e.size, e % cap
            state[new], y[new], cur[new], book[e] = log[e], feats[e, :-1], feats[e, -1], 1
            coeffs[new], start[new], improved[new] = levels[state[new]], 0, False
        # A sweep that improved starts again, else the climb ends, as once the restarts up to
        # it, in order, spend the budget; the first past it re-climbs.  Ends count in order.
        spend = spent + np.cumsum(book[ring := np.arange(base, top) % cap])
        left, end = budget - spend.take(slot - base, mode="clip"), start >= num_moves
        go = (slot >= 0) & (left > 0) & (improved | ~end)
        start[end & improved], improved[end] = 0, False
        if (out := np.flatnonzero((slot >= 0) & ~go)).size:
            for j, e in zip(out.tolist(), (slot[out] % cap).tolist()):
                ends[e] = state[j].tolist() if cur[j] <= least + _SCREEN_SLACK else None
            last[slot[out] % cap], slot[out] = cur[out], -1
        if spend[-1] > budget:
            more, top = False, base + (j := np.argmax(spend > budget))
            book[ring[j:]], drawn = 0, top + (spend[j] - book[ring[j]] < budget)
        r = np.flatnonzero(go)
        while base < slot[r].min(initial=top) and spent < budget:
            spent, least = spent + int(book[e := base % cap]), min(least, last[e])
            if last[e] <= least + _SCREEN_SLACK:
                kept.append((ends[e], last[e]))
            book[e], base = 0, base + 1
        if len(kept) >= n:
            best = _settle(exact, best, [e for e, s in kept if s <= least + _SCREEN_SLACK])
            kept = []
        book[slot[r] % cap] += climb(r, left[r])
    del feats, log, g, w, win, coeffs  # the last settle's tables take their place
    best = _settle(exact, best, [e for e, s in kept if s <= least + _SCREEN_SLACK])
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
