import dataclasses
import random
import shutil

import pytest

from savacert import pathbuild
from savacert.certs import fingerprint
from savacert.pathbuild import (
    CertGraph,
    PathError,
    TargetNotInGraph,
    chains,
    discover,
)
from savacert.storage import Repository, RepositoryError

from helpers import (
    all_simple_paths,
    discovery_order,
    fabricate_cert,
    random_cert_graph,
)


def _graph(scenarios, name):
    repo = Repository.load(scenarios.layout(name).out_dir)
    return repo.graph()


def _chain_key(chain):
    return (fingerprint(chain.anchor),
            tuple(fingerprint(c) for c in chain.certs))


def test_happy3_single_chain(scenarios):
    graph = _graph(scenarios, "happy3")
    ee = scenarios.cert("happy3", "ee", "sub")
    chains = discover(graph, ee)
    assert len(chains) == 1
    assert len(chains[0].certs) == 2
    assert chains[0].certs[-1] == ee
    assert chains[0].anchor.subject == chains[0].certs[0].issuer


def test_mesh_two_chains(scenarios):
    graph = _graph(scenarios, "mesh2paths")
    ee = scenarios.cert("mesh2paths", "ee", "s")
    chains = discover(graph, ee)
    assert len(chains) == 2
    assert len({_chain_key(c) for c in chains}) == 2


def test_cycle_terminates_with_two_loop_free_chains(scenarios):
    graph = _graph(scenarios, "cycle")
    ee = scenarios.cert("cycle", "ee", "b")
    chains = discover(graph, ee)
    assert len(chains) == 2
    for chain in chains:
        fps = [fingerprint(c) for c in chain.certs]
        assert len(fps) == len(set(fps))  # loop-free


def test_deterministic_ordering(scenarios):
    graph = _graph(scenarios, "cycle")
    ee = scenarios.cert("cycle", "ee", "b")
    chains = discover(graph, ee)
    assert [len(c.certs) for c in chains] == sorted(len(c.certs)
                                                    for c in chains)
    assert discover(graph, ee) == chains  # stable across calls


def test_discover_hashes_only_the_target(scenarios, monkeypatch):
    # chains are sorted on the fingerprints the graph is keyed on
    graph = _graph(scenarios, "cycle")
    ee = scenarios.cert("cycle", "ee", "b")
    hashed = []

    def counting(cert):
        hashed.append(cert)
        return fingerprint(cert)

    monkeypatch.setattr(pathbuild, "fingerprint", counting)
    assert len(discover(graph, ee)) == 2
    assert hashed == [ee]


def test_discovery_ignores_signatures(scenarios):
    # tampered end-entity is still discovered; rejection is validation's job
    graph = _graph(scenarios, "bad-signature")
    ee = scenarios.cert("bad-signature", "ee", "sub")
    assert len(discover(graph, ee)) == 1


def test_max_length_bound(scenarios):
    graph = _graph(scenarios, "cycle")
    ee = scenarios.cert("cycle", "ee", "b")
    assert len(discover(graph, ee, max_length=2)) == 1
    assert len(discover(graph, ee, max_length=1)) == 0
    with pytest.raises(ValueError):
        discover(graph, ee, max_length=0)


def test_target_not_in_graph(scenarios):
    graph = _graph(scenarios, "happy3")
    stranger = fabricate_cert("nobody", "nowhere")
    with pytest.raises(TargetNotInGraph):
        discover(graph, stranger)


def test_anchor_must_exist_in_nodes():
    cert = fabricate_cert("a", "a")
    with pytest.raises(PathError):
        CertGraph([cert], [b"\x00" * 32])


def test_with_extra_leaves_the_base_graph_unchanged(scenarios):
    graph = _graph(scenarios, "happy3")
    ee = scenarios.cert("happy3", "ee", "sub")

    def index(g):
        return (dict(g.nodes),
                {name: list(fps) for name, fps in g.by_subject.items()})

    before = index(graph)
    # a sibling of ee lands in the subject list ee is in
    sibling = dataclasses.replace(ee, serial=ee.serial + 1)
    extended = graph.with_extra([sibling, fabricate_cert("x", "x-ca")])
    assert fingerprint(sibling) in extended.nodes
    assert extended.by_subject[ee.subject] == [fingerprint(ee),
                                               fingerprint(sibling)]
    assert graph.by_subject[ee.subject] == [fingerprint(ee)]
    assert index(graph) == before


def test_unstored_anchor_is_named_at_load(scenarios, tmp_path):
    repo = tmp_path / "repo"
    shutil.copytree(scenarios.layout("happy3").out_dir, repo)
    with open(repo / "anchors.txt", "a") as manifest:
        manifest.write(f"{'ab' * 32} ghost -\n")
    with pytest.raises(RepositoryError, match="anchor ghost "):
        Repository.load(repo)


def test_random_graphs_match_bruteforce_oracle():
    rng = random.Random(777)
    for _ in range(60):
        certificates, anchors, target = random_cert_graph(rng)
        graph = CertGraph(certificates,
                          [fingerprint(a) for a in anchors])
        expected = all_simple_paths(certificates, anchors, target,
                                    max_length=12)
        chains = discover(graph, target, max_length=12)
        assert [_chain_key(c) for c in chains] == discovery_order(expected)


def _edges(anchor_fp, fps):
    """(issuer, subject, subject is the target) for every edge of a chain."""
    issuers = (anchor_fp, *fps[:-1])
    return [(i, s, n == len(fps) - 1)
            for n, (i, s) in enumerate(zip(issuers, fps))]


def test_pruned_chains_match_filtered_bruteforce_order():
    rng = random.Random(4158)
    for _ in range(60):
        certificates, anchors, target = random_cert_graph(rng)
        graph = CertGraph(certificates,
                          [fingerprint(a) for a in anchors])
        expected = discovery_order(all_simple_paths(
            certificates, anchors, target, max_length=12))
        edges = {e for anchor_fp, fps in expected
                 for e in _edges(anchor_fp, fps)}
        rejected = {e for e in sorted(edges) if rng.random() < 0.25}

        def edge_ok(issuer, subject, is_last):
            return (fingerprint(issuer), fingerprint(subject),
                    is_last) not in rejected

        pruned = list(chains(graph, target, 12, edge_ok))
        assert [_chain_key(c) for c in pruned] == [
            (anchor_fp, fps) for anchor_fp, fps in expected
            if rejected.isdisjoint(_edges(anchor_fp, fps))]


def test_short_max_length_matches_bruteforce_oracle():
    # dead-end pruning must cut only chains longer than max_length
    rng = random.Random(5280)
    for _ in range(60):
        certificates, anchors, target = random_cert_graph(rng)
        graph = CertGraph(certificates,
                          [fingerprint(a) for a in anchors])
        max_length = rng.randint(1, 4)
        expected = all_simple_paths(certificates, anchors, target,
                                    max_length=max_length)
        chains = discover(graph, target, max_length=max_length)
        assert [_chain_key(c) for c in chains] == discovery_order(expected)


def test_dead_end_island_walks_no_edge():
    # k cross-certified CAs beside the anchor, none issued by it, and a
    # target under one of them: no chain can reach the anchor
    k = 9
    root = fabricate_cert("root", "root")
    island = [fabricate_cert(f"ca{i}", f"ca{j}", serial=k * i + j)
              for i in range(k) for j in range(k) if i != j]
    target = fabricate_cert("ee", "ca0")
    graph = CertGraph([root, *island, target], [fingerprint(root)])
    calls = []

    def edge_ok(issuer, subject, is_target):
        calls.append((issuer, subject))
        if len(calls) > 1000:
            raise AssertionError("the walk entered the dead end")
        return True

    assert list(chains(graph, target, 8, edge_ok)) == []
    assert calls == []
