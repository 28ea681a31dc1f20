"""The compiled token-loop backend (optional, requires :mod:`numba`).

Importing this module requires numba; :mod:`repro.sampling.runtime`
imports it inside a ``try`` so machines without numba simply keep the
python backend.  On machines with numba, :class:`NumbaBackend`
registers under ``"numba"`` and ``backend="auto"`` resolves to it.

What is compiled — and what the compilation preserves:

* **Dense LDA / EDA lanes**: the per-token weight, running cumulative
  sum and right-bisection are written as sequential scalar loops, the
  same association order as the python backend's ``np.cumsum`` (NumPy's
  cumsum is sequential, unlike its pairwise ``sum``), so these lanes
  are **draw-for-draw identical** to the python backend.
* **Dense Source-LDA lane**: the E-column refresh contracts
  ``aug[t] @ ratio`` with an explicit loop; BLAS and a scalar loop are
  not guaranteed to round identically, so this lane is pinned
  **distributionally** — the same contract the sparse engine
  established in PR 2 (the per-token conditional agrees to float
  reassociation).
* **Fold-in exact lane**: sequential cumsum again — draw-identical.
* **Fold-in sparse lane**: the document-bucket mass is the same running
  sum the python backend takes (the last entry of its
  ``np.add.accumulate`` prefix sums), so this lane is
  **draw-for-draw identical** too.  numba is not installed where this
  repository's CI runs, so this contract is unverified there (the
  parity test skips).
* **Sparse training lanes** (LDA, EDA, the bijective Source-LDA
  ``s+r+q`` bucket walk): the python lanes' list-based membership
  structures (``WordTopicLists``, ``TopicSet``) are mirrored into flat
  CSR/swap-remove arrays rebuilt per sweep, and the bucket masses
  accumulate sequentially where the python lanes mix ``np.sum`` /
  python-float walks — **distributionally** equivalent, the sparse
  engine's own PR-2 contract (its bucket partition is already a
  reassociation of the reference weights).
* **Alias/MH training lane** (LDA mode): the stale sparse/dense
  proposal mixture lives in flat arrays on ``table.compiled``; per-word
  rebuilds run inside the compiled chunk.  The MH accept/reject is
  exact against the live counts, so this lane carries the alias
  engine's own **distributional** contract.  The EDA and
  source-bijective alias modes stay on the interpreted loop (their
  per-token cost is already dominated by numpy-vectorized batch draws
  and E-cache refreshes respectively).

The backend subclasses :class:`PythonBackend`, so every lane it does
not override — and every configuration the compiled lanes do not cover
(non-serial scans, mixed source layouts, object-path kernels) — falls
through to the interpreted loop: requesting ``backend="numba"`` never
changes which lanes exist, only how fast the covered ones run.

All randomness stays outside the compiled region: uniforms are
pre-drawn per chunk/sweep with the caller's ``rng`` (one uniform per
token; four for the alias/MH lane — the library-wide contracts), so
the compiled loops are pure functions of (counts, caches, uniforms)
and swapping backends never shifts a shared stream.
"""

from __future__ import annotations

import numpy as np
from numba import njit

from repro.sampling.runtime import (FoldInTable, PythonBackend,
                                    register_backend)
from repro.sampling.scans import SerialScan

#: Lanes `sweep_dense` compiles; anything else falls through.
_COMPILED_DENSE = ("lda", "eda", "source")


@njit(cache=True)
def _searchsorted_right(cumulative, n, x):
    """First index with ``cumulative[i] > x`` (np.searchsorted
    side="right" on the first ``n`` entries)."""
    lo = 0
    hi = n
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] <= x:
            lo = mid + 1
        else:
            hi = mid
    return lo


@njit(cache=True)
def _last_positive_index(cumulative, n):
    """First index reaching the total — the last positive-weight entry
    (np.searchsorted side="left" for the boundary clamp)."""
    total = cumulative[n - 1]
    lo = 0
    hi = n
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < total:
            lo = mid + 1
        else:
            hi = mid
    return lo


@njit(cache=True)
def _dense_lda_chunk(words, doc_ids, old_topics, uniforms, z, start,
                     nw, nt, nd, nt_beta, doc_row, cursor,
                     alpha, beta, beta_sum, cumulative):
    """One chunk of the dense LDA token loop (sequential cumsum: the
    draws match the python backend bit for bit).  ``cursor[0]`` carries
    the current document across chunk calls; ``z`` is written per token
    so a mid-chunk error leaves the same single-token failure state as
    the interpreted loop."""
    num_topics = nt_beta.shape[0]
    current_doc = cursor[0]
    for i in range(words.shape[0]):
        word = words[i]
        doc = doc_ids[i]
        old = old_topics[i]
        nw[word, old] -= 1.0
        nt[old] -= 1.0
        nd[doc, old] -= 1.0
        if doc != current_doc:
            for t in range(num_topics):
                doc_row[t] = nd[doc, t] + alpha
            current_doc = doc
        else:
            doc_row[old] = nd[doc, old] + alpha
        nt_beta[old] = nt[old] + beta_sum
        acc = 0.0
        for t in range(num_topics):
            acc += (nw[word, t] + beta) / nt_beta[t] * doc_row[t]
            cumulative[t] = acc
        total = cumulative[num_topics - 1]
        if not (0.0 < total < np.inf):
            raise ValueError(
                "topic weights must have positive finite mass")
        new = _searchsorted_right(cumulative, num_topics,
                                  uniforms[i] * total)
        if new == num_topics:
            new = _last_positive_index(cumulative, num_topics)
        z[start + i] = new
        nw[word, new] += 1.0
        nt[new] += 1.0
        nd[doc, new] += 1.0
        doc_row[new] = nd[doc, new] + alpha
        nt_beta[new] = nt[new] + beta_sum
    cursor[0] = current_doc


@njit(cache=True)
def _dense_eda_chunk(words, doc_ids, old_topics, uniforms, z, start,
                     nw, nt, nd, phi_by_word, doc_row, cursor,
                     alpha, cumulative):
    """One chunk of the dense fixed-phi (EDA) token loop."""
    num_topics = nt.shape[0]
    current_doc = cursor[0]
    for i in range(words.shape[0]):
        word = words[i]
        doc = doc_ids[i]
        old = old_topics[i]
        nw[word, old] -= 1.0
        nt[old] -= 1.0
        nd[doc, old] -= 1.0
        if doc != current_doc:
            for t in range(num_topics):
                doc_row[t] = nd[doc, t] + alpha
            current_doc = doc
        else:
            doc_row[old] = nd[doc, old] + alpha
        acc = 0.0
        for t in range(num_topics):
            acc += phi_by_word[word, t] * doc_row[t]
            cumulative[t] = acc
        total = cumulative[num_topics - 1]
        if not (0.0 < total < np.inf):
            raise ValueError(
                "topic weights must have positive finite mass")
        new = _searchsorted_right(cumulative, num_topics,
                                  uniforms[i] * total)
        if new == num_topics:
            new = _last_positive_index(cumulative, num_topics)
        z[start + i] = new
        nw[word, new] += 1.0
        nt[new] += 1.0
        nd[doc, new] += 1.0
        doc_row[new] = nd[doc, new] + alpha
    cursor[0] = current_doc


@njit(cache=True)
def _refresh_source_column(topic, k, nt, sum_delta, aug, E, ratio):
    """The ``E[:, t] = aug[t] @ (omega_over) `` refresh, scalar loops.
    ``ratio`` already holds ``omega``; it is overwritten in place."""
    t = topic - k
    num_nodes = ratio.shape[0]
    for a in range(num_nodes):
        ratio[a] = ratio[a] / (nt[topic] + sum_delta[t, a])
    rows = E.shape[0]
    for r in range(rows):
        acc = 0.0
        for a in range(num_nodes):
            acc += aug[t, r, a] * ratio[a]
        E[r, t] = acc


@njit(cache=True)
def _dense_source_chunk(words, doc_ids, old_topics, uniforms, z, start,
                        nw, nt, nd, num_free, omega, sum_delta, aug,
                        E, inverse_plus, nt_free, doc_row, cursor,
                        alpha, beta, beta_sum, ratio, cumulative):
    """One chunk of the dense Source-LDA token loop.

    ``inverse_plus[w, s]`` is the unique-value row index (``inverse + 1``)
    of word ``w`` under source topic ``s``, so ``D[w, s] =
    E[inverse_plus[w, s], s]`` and ``C[s] = E[0, s]``.  The E-column
    refresh reassociates the quadrature contraction (scalar loop vs
    BLAS), so this lane is distributionally — not draw-for-draw —
    equivalent to the python backend.
    """
    num_topics = nt.shape[0]
    k = num_free
    num_nodes = omega.shape[0]
    current_doc = cursor[0]
    for i in range(words.shape[0]):
        word = words[i]
        doc = doc_ids[i]
        old = old_topics[i]
        nw[word, old] -= 1.0
        nt[old] -= 1.0
        nd[doc, old] -= 1.0
        if doc != current_doc:
            for t in range(num_topics):
                doc_row[t] = nd[doc, t] + alpha
            current_doc = doc
        else:
            doc_row[old] = nd[doc, old] + alpha
        if old < k:
            nt_free[old] = nt[old] + beta_sum
        else:
            for a in range(num_nodes):
                ratio[a] = omega[a]
            _refresh_source_column(old, k, nt, sum_delta, aug, E, ratio)
        acc = 0.0
        for t in range(k):
            acc += (nw[word, t] + beta) / nt_free[t] * doc_row[t]
            cumulative[t] = acc
        for t in range(k, num_topics):
            s = t - k
            weight = (nw[word, t] * E[0, s]
                      + E[inverse_plus[word, s], s]) * doc_row[t]
            acc += weight
            cumulative[t] = acc
        total = cumulative[num_topics - 1]
        if not (0.0 < total < np.inf):
            raise ValueError(
                "topic weights must have positive finite mass")
        new = _searchsorted_right(cumulative, num_topics,
                                  uniforms[i] * total)
        if new == num_topics:
            new = _last_positive_index(cumulative, num_topics)
        z[start + i] = new
        nw[word, new] += 1.0
        nt[new] += 1.0
        nd[doc, new] += 1.0
        doc_row[new] = nd[doc, new] + alpha
        if new < k:
            nt_free[new] = nt[new] + beta_sum
        else:
            for a in range(num_nodes):
                ratio[a] = omega[a]
            _refresh_source_column(new, k, nt, sum_delta, aug, E, ratio)
    cursor[0] = current_doc


@njit(cache=True)
def _foldin_exact_doc(word_ids, phi_by_word, alpha, iterations,
                      init_assignments, uniforms, work, cumulative,
                      accumulated, doc_counts, theta_out):
    """Compiled fold-in, exact lane: sequential cumsum per token —
    draw-identical to the python backend given the same pre-drawn
    ``init_assignments`` and ``uniforms``."""
    length = word_ids.shape[0]
    num_topics = doc_counts.shape[0]
    for t in range(num_topics):
        doc_counts[t] = 0.0
        accumulated[t] = 0.0
    for i in range(length):
        doc_counts[init_assignments[i]] += 1.0
    burn_in = min(max(1, iterations // 2), iterations - 1)
    samples = 0
    for iteration in range(iterations):
        base = iteration * length
        for position in range(length):
            word = word_ids[position]
            doc_counts[init_assignments[position]] -= 1.0
            acc = 0.0
            for t in range(num_topics):
                work[t] = phi_by_word[word, t] * (doc_counts[t] + alpha)
                acc += work[t]
                cumulative[t] = acc
            total = cumulative[num_topics - 1]
            if not (0.0 < total < np.inf):
                raise ValueError(
                    "categorical weights must have positive finite mass")
            topic = _searchsorted_right(cumulative, num_topics,
                                        uniforms[base + position] * total)
            if topic >= num_topics:
                topic = _last_positive_index(cumulative, num_topics)
            init_assignments[position] = topic
            doc_counts[topic] += 1.0
        if iteration >= burn_in:
            for t in range(num_topics):
                accumulated[t] += doc_counts[t]
            samples += 1
    denom = length + num_topics * alpha
    scale = 1.0 / max(samples, 1)
    for t in range(num_topics):
        theta_out[t] = (accumulated[t] * scale + alpha) / denom


@njit(cache=True)
def _foldin_sparse_doc(word_ids, phi_by_word, prior_mass, alias_accept,
                       alias_topic, alpha, iterations, init_assignments,
                       uniforms, members, member_pos, r_cum, accumulated,
                       doc_counts, theta_out):
    """Compiled fold-in, sparse lane: prior/document bucket split with
    O(1) alias prior hits.  ``members``/``member_pos`` implement the
    TopicSet (swap-remove membership) as flat arrays; the bucket mass
    accumulates sequentially in member order, exactly as the python
    backend's running sum does, so this lane is draw-for-draw identical
    to it (unverified in CI, where numba is not installed).
    """
    length = word_ids.shape[0]
    num_topics = doc_counts.shape[0]
    for t in range(num_topics):
        doc_counts[t] = 0.0
        accumulated[t] = 0.0
        member_pos[t] = -1
    for i in range(length):
        doc_counts[init_assignments[i]] += 1.0
    num_members = 0
    for t in range(num_topics):
        if doc_counts[t] > 0.0:
            members[num_members] = t
            member_pos[t] = num_members
            num_members += 1
    burn_in = min(max(1, iterations // 2), iterations - 1)
    samples = 0
    for iteration in range(iterations):
        base = iteration * length
        for position in range(length):
            old = init_assignments[position]
            doc_counts[old] -= 1.0
            if doc_counts[old] == 0.0:
                # swap-remove from the membership array
                idx = member_pos[old]
                num_members -= 1
                last = members[num_members]
                members[idx] = last
                member_pos[last] = idx
                member_pos[old] = -1
            word = word_ids[position]
            r_mass = 0.0
            for m in range(num_members):
                t = members[m]
                r_mass += doc_counts[t] * phi_by_word[word, t]
                r_cum[m] = r_mass
            s_mass = prior_mass[word]
            total = r_mass + s_mass
            if not (0.0 < total < np.inf):
                raise ValueError(
                    "categorical weights must have positive finite mass")
            x = uniforms[base + position] * total
            if x < r_mass:
                index = _searchsorted_right(r_cum, num_members, x)
                if index >= num_members:
                    index = _last_positive_index(r_cum, num_members)
                topic = members[index]
            else:
                v = (x - r_mass) / s_mass
                scaled = v * num_topics
                cell = int(scaled)
                if cell >= num_topics:
                    cell = num_topics - 1
                if (scaled - cell) < alias_accept[word, cell]:
                    topic = cell
                else:
                    topic = alias_topic[word, cell]
            init_assignments[position] = topic
            if doc_counts[topic] == 0.0:
                members[num_members] = topic
                member_pos[topic] = num_members
                num_members += 1
            doc_counts[topic] += 1.0
        if iteration >= burn_in:
            for t in range(num_topics):
                accumulated[t] += doc_counts[t]
            samples += 1
    denom = length + num_topics * alpha
    scale = 1.0 / max(samples, 1)
    for t in range(num_topics):
        theta_out[t] = (accumulated[t] * scale + alpha) / denom


@njit(cache=True)
def _csr_remove(word_list, base, n, topic):
    """Swap-remove ``topic`` from a word's CSR topic slice.

    The python ``WordTopicLists`` removes order-preservingly; the walk
    order only reassociates the bucket partition, so swap-remove keeps
    the per-token conditional identical (distributional contract)."""
    for j in range(n):
        if word_list[base + j] == topic:
            word_list[base + j] = word_list[base + n - 1]
            return
    # Unreachable on consistent counts; keep going rather than poison.


@njit(cache=True)
def _sparse_lda_chunk(words, doc_ids, old_topics, uniforms, z, start,
                      nw, nt, nd, alpha, beta, beta_sum, ab,
                      inv_nt, members, member_pos, r_cum, q_cum,
                      word_ptr, word_list, word_len, int_state,
                      float_state):
    """One chunk of the sparse (SparseLDA ``s + r + q``) LDA loop.

    ``members``/``member_pos`` mirror the python ``TopicSet`` (swap
    -remove membership), ``word_ptr``/``word_list``/``word_len`` the
    ``WordTopicLists`` as a CSR whose per-word capacity is the word's
    token count (an upper bound on its distinct topics).  The smoothing
    mass ``s_mass`` is maintained incrementally and refreshed at every
    document boundary exactly like the python path; bucket walks
    accumulate sequentially, so the lane is distributionally equivalent.
    ``int_state`` carries ``[current_doc, num_members]`` and
    ``float_state`` ``[s_mass]`` across chunk calls."""
    num_topics = nt.shape[0]
    current_doc = int_state[0]
    num_members = int_state[1]
    s_mass = float_state[0]
    for i in range(words.shape[0]):
        word = words[i]
        doc = doc_ids[i]
        old = old_topics[i]
        if doc != current_doc:
            # Document entry: refresh inv_nt + the smoothing mass
            # (bounds incremental float drift) and rebuild the
            # document's nonzero-topic membership.
            acc = 0.0
            for t in range(num_topics):
                inv = 1.0 / (nt[t] + beta_sum)
                inv_nt[t] = inv
                acc += inv
                member_pos[t] = -1
            s_mass = ab * acc
            num_members = 0
            for t in range(num_topics):
                if nd[doc, t] > 0.0:
                    members[num_members] = t
                    member_pos[t] = num_members
                    num_members += 1
            current_doc = doc
        nw[word, old] -= 1.0
        nt[old] -= 1.0
        nd[doc, old] -= 1.0
        old_inv = inv_nt[old]
        new_inv = 1.0 / (nt[old] + beta_sum)
        inv_nt[old] = new_inv
        s_mass += ab * (new_inv - old_inv)
        if nd[doc, old] == 0.0:
            idx = member_pos[old]
            num_members -= 1
            last = members[num_members]
            members[idx] = last
            member_pos[last] = idx
            member_pos[old] = -1
        base = word_ptr[word]
        n_w = word_len[word]
        if nw[word, old] == 0.0:
            _csr_remove(word_list, base, n_w, old)
            n_w -= 1
            word_len[word] = n_w
        # q: word bucket over the nonzero nw[word] topics.
        q_mass = 0.0
        for j in range(n_w):
            t = word_list[base + j]
            q_mass += nw[word, t] * (nd[doc, t] + alpha) * inv_nt[t]
            q_cum[j] = q_mass
        # r: document bucket over the nonzero nd[doc] topics.
        r_mass = 0.0
        for m in range(num_members):
            t = members[m]
            r_mass += beta * nd[doc, t] * inv_nt[t]
            r_cum[m] = r_mass
        total = q_mass + r_mass + s_mass
        if not (0.0 < total < np.inf):
            raise ValueError(
                "topic weights must have positive finite mass")
        x = uniforms[i] * total
        new = -1
        if x < q_mass:
            idx = _searchsorted_right(q_cum, n_w, x)
            if idx < n_w:
                new = word_list[base + idx]
            # Float shortfall in the walk falls through to the next
            # bucket, matching the python path.
        if new < 0:
            x -= q_mass
            if num_members > 0 and x < r_mass:
                idx = _searchsorted_right(r_cum, num_members, x)
                if idx >= num_members:
                    idx = num_members - 1  # r weights are all positive
                new = members[idx]
            else:
                x -= r_mass
                # s: smoothing bucket, proportional to inv_nt.
                target = x / ab
                acc = 0.0
                new = num_topics - 1  # inv_nt is all positive
                for t in range(num_topics):
                    acc += inv_nt[t]
                    if target < acc:
                        new = t
                        break
        nw[word, new] += 1.0
        nt[new] += 1.0
        nd[doc, new] += 1.0
        old_inv = inv_nt[new]
        new_inv = 1.0 / (nt[new] + beta_sum)
        inv_nt[new] = new_inv
        s_mass += ab * (new_inv - old_inv)
        if nd[doc, new] == 1.0:
            members[num_members] = new
            member_pos[new] = num_members
            num_members += 1
        if nw[word, new] == 1.0:
            word_list[base + n_w] = new
            word_len[word] = n_w + 1
        z[start + i] = new
    int_state[0] = current_doc
    int_state[1] = num_members
    float_state[0] = s_mass


@njit(cache=True)
def _sparse_eda_chunk(words, doc_ids, old_topics, uniforms, z, start,
                      nw, nt, nd, phi_by_word, prior_mass, alpha,
                      members, member_pos, r_cum, int_state):
    """One chunk of the sparse fixed-phi (EDA) loop: document bucket
    over the nonzero ``nd[doc]`` topics plus the static per-word prior
    mass, mirroring ``EdaSparsePath`` (distributional contract)."""
    num_topics = nt.shape[0]
    current_doc = int_state[0]
    num_members = int_state[1]
    for i in range(words.shape[0]):
        word = words[i]
        doc = doc_ids[i]
        old = old_topics[i]
        if doc != current_doc:
            num_members = 0
            for t in range(num_topics):
                member_pos[t] = -1
            for t in range(num_topics):
                if nd[doc, t] > 0.0:
                    members[num_members] = t
                    member_pos[t] = num_members
                    num_members += 1
            current_doc = doc
        nw[word, old] -= 1.0
        nt[old] -= 1.0
        nd[doc, old] -= 1.0
        if nd[doc, old] == 0.0:
            idx = member_pos[old]
            num_members -= 1
            last = members[num_members]
            members[idx] = last
            member_pos[last] = idx
            member_pos[old] = -1
        r_mass = 0.0
        for m in range(num_members):
            t = members[m]
            r_mass += phi_by_word[word, t] * nd[doc, t]
            r_cum[m] = r_mass
        s_mass = alpha * prior_mass[word]
        total = r_mass + s_mass
        if not (0.0 < total < np.inf):
            raise ValueError(
                "topic weights must have positive finite mass")
        x = uniforms[i] * total
        new = -1
        if num_members > 0 and x < r_mass:
            idx = _searchsorted_right(r_cum, num_members, x)
            if idx >= num_members:
                # phi entries may be zero at doc topics: clamp to the
                # last positive-weight entry.
                idx = _last_positive_index(r_cum, num_members)
            new = members[idx]
        elif s_mass > 0.0:
            # s: prior-mass bucket proportional to the phi column.
            target = (x - r_mass) / alpha
            acc = 0.0
            last_pos = -1
            for t in range(num_topics):
                v = phi_by_word[word, t]
                if v > 0.0:
                    last_pos = t
                acc += v
                if target < acc:
                    new = t
                    break
            if new < 0:
                new = last_pos
        else:
            # Float shortfall past a massless prior bucket: the
            # document bucket holds all the mass.
            idx = _last_positive_index(r_cum, num_members)
            new = members[idx]
        nw[word, new] += 1.0
        nt[new] += 1.0
        nd[doc, new] += 1.0
        if nd[doc, new] == 1.0:
            members[num_members] = new
            member_pos[new] = num_members
            num_members += 1
        z[start + i] = new
    int_state[0] = current_doc
    int_state[1] = num_members


@njit(cache=True)
def _sparse_source_bijective_chunk(words, doc_ids, old_topics, uniforms,
                                   z, start, nw, nt, nd, alpha, omega,
                                   sum_delta, aug, E, inverse_plus,
                                   corr_ptr, corr_row, corr_topics,
                                   doc_starts, doc_lengths, doc_z,
                                   r_cum, corr_cum, q_cum, ratio,
                                   word_ptr, word_list, word_len,
                                   int_state):
    """One chunk of the bijective Source-LDA sparse loop (the
    ``s + r + q`` bucket walk of :func:`run_source_bijective_chunk` as
    scalar loops).

    ``C[t] = E[0, t]``, ``D[w, t] = E[inverse_plus[w, t], t]`` and the
    floor is ``E[1, :]``; corrections walk the per-word CSR
    ``corr_ptr``/``corr_row``/``corr_topics``.  The E-column refresh
    and every bucket mass accumulate sequentially, so the lane is
    distributionally equivalent to the python path (which itself
    carries the PR-2 distributional contract).  ``int_state`` carries
    ``[current_doc, position, doc_len]`` across chunk calls."""
    num_topics = nt.shape[0]
    num_nodes = omega.shape[0]
    current_doc = int_state[0]
    position = int_state[1]
    doc_len = int_state[2]
    for i in range(words.shape[0]):
        word = words[i]
        doc = doc_ids[i]
        old = old_topics[i]
        if doc != current_doc:
            doc_len = doc_lengths[doc]
            start_token = doc_starts[doc]
            for j in range(doc_len):
                doc_z[j] = z[start_token + j]
            position = 0
            current_doc = doc
        nw[word, old] -= 1.0
        nt[old] -= 1.0
        nd[doc, old] -= 1.0
        for a in range(num_nodes):
            ratio[a] = omega[a]
        _refresh_source_column(old, 0, nt, sum_delta, aug, E, ratio)
        base = word_ptr[word]
        n_w = word_len[word]
        if nw[word, old] == 0.0:
            _csr_remove(word_list, base, n_w, old)
            n_w -= 1
            word_len[word] = n_w
        # q: word bucket over the nonzero nw[word] topics.
        q_mass = 0.0
        for j in range(n_w):
            t = word_list[base + j]
            q_mass += nw[word, t] * E[0, t] * (nd[doc, t] + alpha)
            q_cum[j] = q_mass
        # r: document bucket over the document's token slice (weight
        # D[z_j] per other token; the current slot is zeroed).
        r_mass = 0.0
        for j in range(doc_len):
            if j != position:
                tj = doc_z[j]
                r_mass += E[inverse_plus[word, tj], tj]
            r_cum[j] = r_mass
        # s (correction): alpha * (D - E1) over this word's articles.
        lo = corr_ptr[word]
        hi = corr_ptr[word + 1]
        n_corr = hi - lo
        sc_acc = 0.0
        for c in range(n_corr):
            t = corr_topics[lo + c]
            sc_acc += E[corr_row[lo + c], t] - E[1, t]
            corr_cum[c] = sc_acc
        sc_mass = alpha * sc_acc
        # s (floor): alpha * E1 over every source topic.
        fl_acc = 0.0
        for t in range(num_topics):
            fl_acc += E[1, t]
        sfl_mass = alpha * fl_acc
        total = q_mass + r_mass + sc_mass + sfl_mass
        if not (0.0 < total < np.inf):
            raise ValueError(
                "topic weights must have positive finite mass")
        x = uniforms[i] * total
        new = -1
        if x < q_mass:
            idx = _searchsorted_right(q_cum, n_w, x)
            if idx < n_w:
                new = word_list[base + idx]
        if new < 0:
            x -= q_mass
            if x < r_mass:
                idx = _searchsorted_right(r_cum, doc_len, x)
                if idx >= doc_len:
                    # Boundary draw over the zeroed current slot.
                    idx = _last_positive_index(r_cum, doc_len)
                new = doc_z[idx]
            else:
                x -= r_mass
                if n_corr > 0 and x < sc_mass:
                    idx = _searchsorted_right(corr_cum, n_corr,
                                              x / alpha)
                    if idx >= n_corr:
                        # Corrections may include zeros; clamp to the
                        # last positive one.
                        idx = _last_positive_index(corr_cum, n_corr)
                    new = corr_topics[lo + idx]
                else:
                    x -= sc_mass
                    # s (floor): E1 is strictly positive.
                    target = x / alpha
                    acc = 0.0
                    new = num_topics - 1
                    for t in range(num_topics):
                        acc += E[1, t]
                        if target < acc:
                            new = t
                            break
        nw[word, new] += 1.0
        nt[new] += 1.0
        nd[doc, new] += 1.0
        for a in range(num_nodes):
            ratio[a] = omega[a]
        _refresh_source_column(new, 0, nt, sum_delta, aug, E, ratio)
        if nw[word, new] == 1.0:
            word_list[base + n_w] = new
            word_len[word] = n_w + 1
        doc_z[position] = new
        position += 1
        z[start + i] = new
    int_state[0] = current_doc
    int_state[1] = position
    int_state[2] = doc_len


@njit(cache=True)
def _stale_component_value(sup_topics, sup_vals, base, n, topic):
    """Frozen sparse-component weight of ``topic`` (0 off support) —
    binary search over the word's sorted support slice."""
    lo = 0
    hi = n
    while lo < hi:
        mid = (lo + hi) // 2
        if sup_topics[base + mid] < topic:
            lo = mid + 1
        else:
            hi = mid
    if lo < n and sup_topics[base + lo] == topic:
        return sup_vals[base + lo]
    return 0.0


@njit(cache=True)
def _alias_lda_chunk(words, doc_ids, old_topics, uniforms, z, start,
                     nw, nt, nd, alpha, beta, beta_sum, rebuild_every,
                     sup_ptr, sup_topics, sup_vals, sup_cum, sup_len,
                     sup_mass, draws_since, dense_vals, dense_accept,
                     dense_alias, dense_mass, doc_starts, doc_lengths,
                     doc_z, int_state, mh_out):
    """One chunk of the alias/MH LDA loop — the compiled mirror of
    :func:`~repro.sampling.runtime.run_alias_mh_chunk`'s lda mode.

    The per-word stale sparse components live in the CSR arrays
    ``sup_*`` (capacity = the word's token count, an upper bound on its
    support; support topics are stored ascending so the frozen ``q``
    lookups binary-search); rebuilds run inline as an O(T) support scan
    — amortized over ``rebuild_every`` draws.  Four pre-drawn uniforms
    per token, coins consumed on self-proposals, rebuilds draw no RNG —
    the same stream pin as the interpreted lane.  ``int_state`` carries
    ``[current_doc, position, doc_len]``; ``mh_out`` accumulates
    ``[proposals, accepts, rebuilds]``."""
    num_topics = nt.shape[0]
    alpha_times_t = alpha * num_topics
    current_doc = int_state[0]
    position = int_state[1]
    doc_len = int_state[2]
    proposals = 0
    accepts = 0
    rebuilds = 0
    for i in range(words.shape[0]):
        word = words[i]
        doc = doc_ids[i]
        s0 = old_topics[i]
        u1 = uniforms[4 * i]
        u2 = uniforms[4 * i + 1]
        u3 = uniforms[4 * i + 2]
        u4 = uniforms[4 * i + 3]
        if doc != current_doc:
            doc_len = doc_lengths[doc]
            start_token = doc_starts[doc]
            for j in range(doc_len):
                doc_z[j] = z[start_token + j]
            position = 0
            current_doc = doc
        nw[word, s0] -= 1.0
        nt[s0] -= 1.0
        nd[doc, s0] -= 1.0
        # Rebuild *after* the decrement: the frozen component must
        # never include the topic being resampled, or the proposal
        # depends on the current state and the fixed-proposal MH test
        # stops being exact.
        base = sup_ptr[word]
        if draws_since[word] >= rebuild_every:
            rebuilds += 1
            count = 0
            acc = 0.0
            for t in range(num_topics):
                cnt = nw[word, t]
                if cnt > 0.0:
                    v = cnt / (nt[t] + beta_sum)
                    sup_topics[base + count] = t
                    sup_vals[base + count] = v
                    acc += v
                    sup_cum[base + count] = acc
                    count += 1
            sup_len[word] = count
            sup_mass[word] = acc
            draws_since[word] = 0
        draws_since[word] += 1
        s = s0
        pi_s = 0.0
        have_pi = False
        # ---------------------------------------- word sub-step
        wm = sup_mass[word]
        x = u1 * (wm + dense_mass)
        if x < wm:
            n_w = sup_len[word]
            idx = _searchsorted_right(sup_cum[base:base + n_w], n_w, x)
            if idx >= n_w:  # float boundary
                idx = n_w - 1
            t = sup_topics[base + idx]
        else:
            v = (x - wm) / dense_mass
            scaled = v * num_topics
            cell = int(scaled)
            if cell >= num_topics:
                cell = num_topics - 1
            if scaled - cell < dense_accept[cell]:
                t = cell
            else:
                t = dense_alias[cell]
        proposals += 1
        if t != s:
            pi_s = (nw[word, s] + beta) / (nt[s] + beta_sum) \
                * (nd[doc, s] + alpha)
            pi_t = (nw[word, t] + beta) / (nt[t] + beta_sum) \
                * (nd[doc, t] + alpha)
            have_pi = True
            n_w = sup_len[word]
            q_s = dense_vals[s] + _stale_component_value(
                sup_topics, sup_vals, base, n_w, s)
            q_t = dense_vals[t] + _stale_component_value(
                sup_topics, sup_vals, base, n_w, t)
            if u2 * pi_s * q_t < pi_t * q_s:
                s = t
                pi_s = pi_t
                accepts += 1
        else:
            accepts += 1
        # ----------------------------------------- doc sub-step
        # The current token's slot is skipped so q_d = nd_dec + alpha
        # never depends on the topic being resampled (mirrors the
        # interpreted lane's exactness note).
        others = doc_len - 1
        x = u3 * (others + alpha_times_t)
        if x < others:
            j = int(x)
            if j >= others:  # float boundary
                j = others - 1
            if j >= position:
                j += 1
            t = doc_z[j]
        else:
            t = int((x - others) / alpha)
            if t >= num_topics:  # float boundary
                t = num_topics - 1
        proposals += 1
        if t != s:
            if not have_pi:
                pi_s = (nw[word, s] + beta) / (nt[s] + beta_sum) \
                    * (nd[doc, s] + alpha)
            pi_t = (nw[word, t] + beta) / (nt[t] + beta_sum) \
                * (nd[doc, t] + alpha)
            qd_s = nd[doc, s] + alpha
            qd_t = nd[doc, t] + alpha
            if u4 * pi_s * qd_t < pi_t * qd_s:
                s = t
                accepts += 1
        else:
            accepts += 1
        nw[word, s] += 1.0
        nt[s] += 1.0
        nd[doc, s] += 1.0
        doc_z[position] = s
        position += 1
        z[start + i] = s
    int_state[0] = current_doc
    int_state[1] = position
    int_state[2] = doc_len
    mh_out[0] += proposals
    mh_out[1] += accepts
    mh_out[2] += rebuilds


def _word_topic_csr(state):
    """The word -> nonzero-topic lists (python ``WordTopicLists``) as a
    CSR rebuilt per sweep from the live ``nw``.

    Per-word capacity is the word's corpus token count — an upper bound
    on its distinct assigned topics at any point of the sweep, so
    in-sweep appends never overflow.  Returns ``(counts, word_ptr,
    word_list, word_len)``."""
    vocab_size = state.vocab_size
    counts = np.bincount(state.words,
                         minlength=vocab_size).astype(np.int64)
    word_ptr = np.zeros(vocab_size + 1, dtype=np.int64)
    np.cumsum(counts, out=word_ptr[1:])
    word_list = np.zeros(int(word_ptr[-1]), dtype=np.int64)
    word_len = np.zeros(vocab_size, dtype=np.int64)
    rows, topics = np.nonzero(state.nw)
    if rows.size:
        nnz = np.bincount(rows, minlength=vocab_size)
        word_len[:] = nnz
        starts = np.concatenate(([0], np.cumsum(nnz)[:-1]))
        offsets = np.arange(rows.size, dtype=np.int64) \
            - np.repeat(starts, nnz)
        word_list[word_ptr[rows] + offsets] = topics
    return counts, word_ptr, word_list, word_len


class NumbaBackend(PythonBackend):
    """Compiled dense, sparse, alias (LDA mode) and fold-in lanes;
    everything else inherits the interpreted loops from
    :class:`PythonBackend` (per-lane fallback — see the module
    docstring for the lane-by-lane equivalence contract)."""

    name = "numba"
    # The compiled per-document sparse lane, not the inherited numpy
    # document-batched one, folds micro-batches here.
    foldin_batched = False

    def sweep_sparse(self, engine) -> None:
        path = engine._path
        table = path.sparse_table()
        lane = getattr(path, "lane", None)
        # Non-serial scans stay on the interpreted loop (the scan
        # strategy must drive the smoothing-bucket fallback there), as
        # do paths without a compiled lane (the mixed-layout source
        # path, custom kernels).
        if (type(engine.scan) is not SerialScan
                or (table is None and lane not in ("lda", "eda"))):
            super().sweep_sparse(engine)
            return
        path.begin_sweep()
        if table is not None:
            self._sweep_sparse_bijective(engine, table)
        elif lane == "lda":
            self._sweep_sparse_lda(engine, path)
        else:
            self._sweep_sparse_eda(engine, path)

    def _sweep_sparse_lda(self, engine, path) -> None:
        state = engine.state
        z = state.z
        chunk = engine.chunk_size
        rng_random = engine.rng.random
        num_topics = state.num_topics
        counts, word_ptr, word_list, word_len = _word_topic_csr(state)
        max_count = int(counts.max()) if counts.size else 0
        q_cum = np.empty(max(1, min(max_count, num_topics)))
        inv_nt = np.empty(num_topics)
        members = np.empty(num_topics, dtype=np.int64)
        member_pos = np.empty(num_topics, dtype=np.int64)
        r_cum = np.empty(num_topics)
        int_state = np.array([-1, 0], dtype=np.int64)
        float_state = np.zeros(1)
        for start in range(0, state.num_tokens, chunk):
            stop = min(start + chunk, state.num_tokens)
            _sparse_lda_chunk(
                state.words[start:stop], state.doc_ids[start:stop],
                z[start:stop].copy(), rng_random(stop - start), z,
                start, state.nw, state.nt, state.nd, path.alpha,
                path.beta, path._beta_sum, path._ab, inv_nt, members,
                member_pos, r_cum, q_cum, word_ptr, word_list,
                word_len, int_state, float_state)

    def _sweep_sparse_eda(self, engine, path) -> None:
        state = engine.state
        z = state.z
        chunk = engine.chunk_size
        rng_random = engine.rng.random
        num_topics = state.num_topics
        members = np.empty(num_topics, dtype=np.int64)
        member_pos = np.empty(num_topics, dtype=np.int64)
        r_cum = np.empty(num_topics)
        int_state = np.array([-1, 0], dtype=np.int64)
        for start in range(0, state.num_tokens, chunk):
            stop = min(start + chunk, state.num_tokens)
            _sparse_eda_chunk(
                state.words[start:stop], state.doc_ids[start:stop],
                z[start:stop].copy(), rng_random(stop - start), z,
                start, state.nw, state.nt, state.nd,
                path._phi_by_word, path._prior_mass, path.alpha,
                members, member_pos, r_cum, int_state)

    def _sweep_sparse_bijective(self, engine, table) -> None:
        state = engine.state
        z = state.z
        chunk = engine.chunk_size
        rng_random = engine.rng.random
        comp = table.compiled
        if comp is None:
            # Static gather structures: the (V, S) flat indices map to
            # E rows by integer division (flat = row * S + topic), and
            # the correction CSR gets the same treatment.
            num_source = table.num_source
            comp = {
                "inverse_plus":
                    (table.flat // num_source).astype(np.int64),
                "corr_ptr": np.asarray(table.corr_ptr, dtype=np.int64),
                "corr_row":
                    (table.corr_flat // num_source).astype(np.int64),
                "corr_topics":
                    np.asarray(table.corr_topics, dtype=np.int64),
                "doc_starts":
                    np.asarray(table.doc_starts, dtype=np.int64),
                "doc_lengths":
                    np.asarray(table.doc_lengths, dtype=np.int64),
            }
            table.compiled = comp
        counts, word_ptr, word_list, word_len = _word_topic_csr(state)
        max_count = int(counts.max()) if counts.size else 0
        q_cum = np.empty(max(1, min(max_count, state.num_topics)))
        r_cum = np.empty(max(table.doc_z.shape[0], 1))
        corr_cum = np.empty(max(table.corr_buf.shape[0], 1))
        int_state = np.array([-1, 0, 0], dtype=np.int64)
        for start in range(0, state.num_tokens, chunk):
            stop = min(start + chunk, state.num_tokens)
            _sparse_source_bijective_chunk(
                state.words[start:stop], state.doc_ids[start:stop],
                z[start:stop].copy(), rng_random(stop - start), z,
                start, state.nw, state.nt, state.nd, table.alpha,
                table.omega, table.sum_delta, table.aug, table.E,
                comp["inverse_plus"], comp["corr_ptr"],
                comp["corr_row"], comp["corr_topics"],
                comp["doc_starts"], comp["doc_lengths"], table.doc_z,
                r_cum, corr_cum, q_cum, table.ratio_buf, word_ptr,
                word_list, word_len, int_state)

    def sweep_alias(self, engine) -> None:
        path = engine._path
        table = path.alias_table()
        if table.mode != "lda":
            # EDA's word proposals are one vectorized batch and the
            # source mode's hot cost is numpy E-cache refreshes — the
            # interpreted lane already amortizes both.
            super().sweep_alias(engine)
            return
        path.begin_sweep()
        state = engine.state
        z = state.z
        chunk = engine.chunk_size
        rng_random = engine.rng.random
        comp = table.compiled
        if comp is None:
            # The stale sparse components as CSR arrays — these persist
            # across sweeps (that persistence IS the amortization), so
            # they live on the table, not per-sweep scratch.
            vocab_size = state.vocab_size
            sup_counts = np.bincount(
                state.words, minlength=vocab_size).astype(np.int64)
            sup_ptr = np.zeros(vocab_size + 1, dtype=np.int64)
            np.cumsum(sup_counts, out=sup_ptr[1:])
            capacity = int(sup_ptr[-1])
            comp = {
                "sup_ptr": sup_ptr,
                "sup_topics": np.zeros(capacity, dtype=np.int64),
                "sup_vals": np.zeros(capacity),
                "sup_cum": np.zeros(capacity),
                "sup_len": np.zeros(vocab_size, dtype=np.int64),
                "sup_mass": np.zeros(vocab_size),
                # Start saturated so every word builds on first touch.
                "draws_since": np.full(vocab_size, table.rebuild_every,
                                       dtype=np.int64),
                "doc_starts":
                    np.asarray(table.doc_starts, dtype=np.int64),
                "doc_lengths":
                    np.asarray(table.doc_lengths, dtype=np.int64),
            }
            table.compiled = comp
        dense_vals = np.asarray(table.dense_vals)
        dense_accept = np.asarray(table.dense_accept)
        dense_alias = np.asarray(table.dense_alias, dtype=np.int64)
        int_state = np.array([-1, 0, 0], dtype=np.int64)
        mh_out = np.zeros(3, dtype=np.int64)
        try:
            for start in range(0, state.num_tokens, chunk):
                stop = min(start + chunk, state.num_tokens)
                _alias_lda_chunk(
                    state.words[start:stop],
                    state.doc_ids[start:stop], z[start:stop].copy(),
                    rng_random(4 * (stop - start)), z, start, state.nw,
                    state.nt, state.nd, table.alpha, table.beta,
                    table.beta_sum, table.rebuild_every,
                    comp["sup_ptr"], comp["sup_topics"],
                    comp["sup_vals"], comp["sup_cum"], comp["sup_len"],
                    comp["sup_mass"], comp["draws_since"], dense_vals,
                    dense_accept, dense_alias, table.dense_mass,
                    comp["doc_starts"], comp["doc_lengths"],
                    table.doc_z, int_state, mh_out)
        finally:
            table.mh_counts[0] += mh_out[0]
            table.mh_counts[1] += mh_out[1]
            table.rebuilds[0] += mh_out[2]

    def sweep_dense(self, engine) -> None:
        path = engine._path
        table = engine._table
        if (path is None or table is None or not engine._inline_serial
                or table.kind not in _COMPILED_DENSE):
            super().sweep_dense(engine)
            return
        path.begin_sweep()
        state = engine.state
        z = state.z
        chunk = engine.chunk_size
        rng_random = engine.rng.random
        num_topics = state.num_topics
        cumulative = np.empty(num_topics)
        doc_row = np.empty(num_topics)
        cursor = np.full(1, -1, dtype=np.int64)
        for start in range(0, state.num_tokens, chunk):
            stop = min(start + chunk, state.num_tokens)
            words = state.words[start:stop]
            doc_ids = state.doc_ids[start:stop]
            old_topics = z[start:stop].copy()
            uniforms = rng_random(stop - start)
            if table.kind == "lda":
                _dense_lda_chunk(
                    words, doc_ids, old_topics, uniforms, z, start,
                    state.nw, state.nt, state.nd, table.nt_beta,
                    doc_row, cursor, table.alpha, table.beta,
                    table.beta_sum, cumulative)
            elif table.kind == "eda":
                _dense_eda_chunk(
                    words, doc_ids, old_topics, uniforms, z, start,
                    state.nw, state.nt, state.nd, table.phi_by_word,
                    doc_row, cursor, table.alpha, cumulative)
            else:
                _dense_source_chunk(
                    words, doc_ids, old_topics, uniforms, z, start,
                    state.nw, state.nt, state.nd, table.num_free,
                    table.omega, table.sum_delta, table.aug, table.E,
                    table.inverse_plus, table.nt_free, doc_row, cursor,
                    table.alpha, table.beta, table.beta_sum,
                    table.ratio_buf, cumulative)

    def foldin_exact(self, table: FoldInTable, word_ids: np.ndarray,
                     rng: np.random.Generator, scratch) -> np.ndarray:
        length = int(word_ids.shape[0])
        iterations = table.iterations
        num_topics = table.num_topics
        phi_by_word = table.phi_by_word
        if not isinstance(phi_by_word, np.ndarray):
            # Lazy (sharded) phi: gather this document's rows into a
            # dense block and remap word ids onto it.  The gathered
            # rows are byte-identical to the whole-matrix rows, so the
            # compiled kernel consumes the same numbers — and the same
            # RNG stream — as the unsharded path.
            phi_by_word = np.ascontiguousarray(
                phi_by_word.take(word_ids, axis=0))
            word_ids = np.arange(length, dtype=np.int64)
        assignments = rng.integers(0, num_topics, size=length)
        # One draw covering all sweeps: rng.random consumes the bit
        # stream identically in one call or per-sweep calls, so the
        # stream matches the python backend exactly.
        uniforms = rng.random(iterations * length)
        doc_counts = np.empty(num_topics)
        theta = np.empty(num_topics)
        _foldin_exact_doc(word_ids, phi_by_word, table.alpha,
                          iterations, assignments, uniforms,
                          scratch.work, scratch.cumulative,
                          scratch.accumulated, doc_counts, theta)
        return theta

    def foldin_sparse(self, table: FoldInTable, word_ids: np.ndarray,
                      rng: np.random.Generator, scratch) -> np.ndarray:
        length = int(word_ids.shape[0])
        iterations = table.iterations
        num_topics = table.num_topics
        phi_by_word = table.phi_by_word
        prior_mass = table.prior_mass
        alias_accept = table.alias_accept
        alias_topic = table.alias_topic
        if not isinstance(phi_by_word, np.ndarray):
            # Same gather-and-remap as foldin_exact, extended to the
            # per-word alias rows and prior masses (all row-independent
            # quantities, so the gathered values match the unsharded
            # tables bit for bit).
            phi_by_word = np.ascontiguousarray(
                phi_by_word.take(word_ids, axis=0))
            prior_mass = np.ascontiguousarray(
                prior_mass.take(word_ids, axis=0))
            alias_accept = np.ascontiguousarray(
                alias_accept.take(word_ids, axis=0))
            alias_topic = np.ascontiguousarray(
                alias_topic.take(word_ids, axis=0))
            word_ids = np.arange(length, dtype=np.int64)
        assignments = rng.integers(0, num_topics, size=length)
        uniforms = rng.random(iterations * length)
        doc_counts = np.empty(num_topics)
        members = np.empty(num_topics, dtype=np.int64)
        member_pos = np.empty(num_topics, dtype=np.int64)
        theta = np.empty(num_topics)
        _foldin_sparse_doc(word_ids, phi_by_word,
                           prior_mass, alias_accept,
                           alias_topic, table.alpha, iterations,
                           assignments, uniforms, members, member_pos,
                           scratch.cumulative, scratch.accumulated,
                           doc_counts, theta)
        return theta


register_backend(NumbaBackend())
