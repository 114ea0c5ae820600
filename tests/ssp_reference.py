"""Textbook successive-shortest-path min-cost flow, used as an independent
oracle for the network simplex. Deliberately shares no code with fixnet."""

from collections import deque

INF = float("inf")


def min_cost_flow(node_count, supply, arcs):
    """arcs: (tail, head, cost, capacity) rows. Returns (feasible, cost, flows)."""
    n = node_count + 2
    src, snk = node_count, node_count + 1
    to, cap, cost, adj = [], [], [], [[] for _ in range(n)]

    def add(u, v, c, w):
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        cost.append(w)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
        cost.append(-w)

    for t, h, w, u in arcs:
        add(t, h, u, w)
    need = 0
    for i, b in enumerate(supply):
        if b > 0:
            add(src, i, b, 0)
            need += b
        elif b < 0:
            add(i, snk, -b, 0)

    sent = 0
    total = 0
    while sent < need:
        dist = [INF] * n
        dist[src] = 0
        pred = [-1] * n
        inq = [False] * n
        queue = deque([src])
        inq[src] = True
        while queue:
            u = queue.popleft()
            inq[u] = False
            du = dist[u]
            for e in adj[u]:
                if cap[e] > 0 and du + cost[e] < dist[to[e]]:
                    dist[to[e]] = du + cost[e]
                    pred[to[e]] = e
                    if not inq[to[e]]:
                        queue.append(to[e])
                        inq[to[e]] = True
        if dist[snk] == INF:
            return False, None, None
        push = need - sent
        v = snk
        while v != src:
            e = pred[v]
            push = min(push, cap[e])
            v = to[e ^ 1]
        v = snk
        while v != src:
            e = pred[v]
            cap[e] -= push
            cap[e ^ 1] += push
            v = to[e ^ 1]
        sent += push
        total += push * dist[snk]
    flows = [cap[2 * idx + 1] for idx in range(len(arcs))]
    return True, total, flows


def problem_rows(problem, costs=None):
    """The (tail, head, cost, capacity) rows of an instance's arc arrays,
    with `costs` in place of its unit costs when given."""
    cost = problem.cost.tolist() if costs is None else list(costs)
    return list(zip(problem.tail.tolist(), problem.head.tolist(), cost, problem.cap.tolist()))
