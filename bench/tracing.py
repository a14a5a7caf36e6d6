"""Benchmark-owned tracing for the per-layer run.

Timing wrappers are installed on the names the program's callers look up
(``validation.check_signature``, ``pathbuild.fingerprint``,
``crypto.verify``, ``Repository.graph`` ...), and removed afterwards.
``der.encode`` and ``der.decode_exact`` are wrapped only where other
modules imported them, so only top-level codec calls are spans, never the
codec's own recursion.

A span is recorded only inside a root: a ``/dvcs`` transaction, a
``/status`` transaction, a repository load or a client-side response
check.  Each span has a name, start, end, parent and request id; spans stay
in memory until ``write``.  The responder's ``/status`` spans are linked
to the request whose ``check_online`` span encloses them through the query
nonce, which the wrapper draws the same way ``check_online`` would.
"""

from __future__ import annotations

import itertools
import json
import secrets
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from savacert import (
    certs,
    crypto,
    der,
    pathbuild,
    policytree,
    protocol,
    revocation,
    server,
    storage,
    validation,
)

_MODULES = (certs, crypto, pathbuild, policytree, protocol, revocation,
            server, storage, validation)

SETUP = "setup"
VERIFY = "verify"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    rid: object
    sid: int
    attr: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._online_parent: dict = {}  # status query nonce -> (rid, sid)
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, root=None):
        """``root(args, kwargs, sid)`` returns (rid, parent) and makes the
        call a root; other spans record only inside a root."""
        local = self._local
        spans = self.spans
        ids = self._ids
        online_parent = self._online_parent

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                rid, parent = local.rid, stack[-1]
            elif root is not None:
                rid, parent = root(args, kwargs, sid)
                local.rid = rid
            else:
                return fn(*args, **kwargs)
            if name == "revocation.check_online":
                if len(args) > 3:
                    nonce = args[3]
                else:
                    nonce = kwargs.get("nonce")
                    if nonce is None:
                        nonce = kwargs["nonce"] = secrets.randbits(64)
                online_parent[nonce] = (rid, sid)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(name, start, end, parent, rid, sid)
                spans.append(span)
            if name == "pathbuild.discover":
                span.attr = len(result)
            elif name == "revocation.check_online":
                span.attr = (args[0].issuer, args[0].serial)
            return result

        traced.__wrapped__ = fn
        return traced

    def _request_root(self, args, kwargs, sid):
        return sid, None

    def _status_root(self, args, kwargs, sid):
        # args = (CvsServer, body); the query is SEQUENCE {digest, serial,
        # nonce}.  der's own decode_exact is not wrapped.
        try:
            nonce = der.decode_exact(args[1]).elements[2].value
        except (der.DerError, AttributeError, IndexError):
            return None, None
        return self._online_parent.get(nonce, (None, None))

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, root=None) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(raw.__func__, name, root))
        else:
            patched = self._wrap(raw, name, root)
        setattr(owner, attr, patched)
        self._undo.append((owner, attr, raw))

    def _patch_importers(self, fn, name: str) -> None:
        """Wrap ``fn`` under every module name bound to it."""
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, name)

    def install(self) -> None:
        for fn, name in ((der.encode, "der.encode"),
                         (der.decode_exact, "der.decode_exact")):
            self._patch_importers(fn, name)  # der itself is not in _MODULES
        for fn, name in (
                (certs.fingerprint, "certs.fingerprint"),
                (certs.check_signature, "certs.check_signature"),
                (certs.check_crl_signature, "certs.check_crl_signature"),
                (certs.parse_certificate, "certs.parse_certificate"),
                (crypto.verify, "crypto.verify"),
                (crypto.sign, "crypto.sign"),
                (pathbuild.discover, "pathbuild.discover"),
                (validation.validate_path, "validation.validate_path"),
                (validation.validate_target, "validation.validate_target"),
                (policytree.init_state, "policytree.init_state"),
                (policytree.process_cert, "policytree.process_cert"),
                (policytree.final_verdict, "policytree.final_verdict"),
                (revocation.check_crl, "revocation.check_crl"),
                (revocation.check_online, "revocation.check_online"),
                (protocol.parse_request, "protocol.parse_request"),
                (protocol.sign_dvc, "protocol.sign_dvc")):
            self._patch_importers(fn, name)
        self._patch(protocol, "verify_response", "protocol.verify_response",
                    root=lambda a, k, sid: (VERIFY, None))
        self._patch(storage.Repository, "load", "storage.load",
                    root=lambda a, k, sid: (SETUP, None))
        self._patch(storage.Repository, "graph", "storage.graph")
        self._patch(pathbuild.CertGraph, "with_extra", "pathbuild.with_extra")
        self._patch(server.CvsServer, "admit", "server.admit")
        self._patch(server.CvsServer, "handle_dvcs_bytes",
                    "server.handle_dvcs_bytes", root=self._request_root)
        self._patch(server.CvsServer, "handle_status_bytes",
                    "revocation.responder", root=self._status_root)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent,
                                    s.rid, s.sid]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(spans: list[Span], rtts_s: list[float]) -> dict:
    """Per-DVC layer figures for the traced transactions.  Per-DVC figures
    count the server's work for the DVC, its nested ``/status``
    transactions included; ``protocol.verify_response`` is the client's."""
    handles = [s for s in spans if s.name == "server.handle_dvcs_bytes"]
    dvcs = {s.rid for s in handles}
    n = len(handles)
    work = [s for s in spans if s.rid in dvcs]
    child_s: dict = defaultdict(float)
    for s in work:
        if s.parent is not None:
            child_s[s.parent] += s.seconds
    calls: Counter = Counter()
    total_s: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    for s in work:
        calls[s.name] += 1
        total_s[s.name] += s.seconds
        self_s[s.name] += s.seconds - child_s[s.sid]

    def per_dvc(count: float) -> float:
        return count / n

    def ms_per_dvc(seconds: float) -> float:
        return seconds * 1000 / n

    def layer_self_ms(prefix: str) -> float:
        return ms_per_dvc(sum(v for k, v in self_s.items()
                              if k.startswith(prefix)))

    def mean_ms(name: str) -> float:
        return total_s[name] * 1000 / calls[name] if calls[name] else 0.0

    targets = calls["validation.validate_target"]
    discovers = [s for s in work if s.name == "pathbuild.discover"]
    online = sorted((s for s in work if s.name == "revocation.check_online"),
                    key=lambda s: s.start)
    seen: set = set()
    repeats = 0
    for s in online:
        repeats += s.attr in seen
        seen.add(s.attr)
    parses = [s for s in spans
              if s.rid == SETUP and s.name == "certs.parse_certificate"]
    verifies = [s for s in spans if s.name == "protocol.verify_response"
                and s.parent is None]
    handle_ms = statistics.fmean(s.seconds for s in handles) * 1000
    return {
        "der.encode_calls_per_dvc": per_dvc(calls["der.encode"]),
        "der.decode_calls_per_dvc": per_dvc(calls["der.decode_exact"]),
        "der.self_ms_per_dvc": layer_self_ms("der."),
        "certs.fingerprint_calls_per_dvc": per_dvc(calls["certs.fingerprint"]),
        "certs.fingerprint_self_ms_per_dvc":
            ms_per_dvc(self_s["certs.fingerprint"]),
        "certs.check_signature_calls_per_dvc":
            per_dvc(calls["certs.check_signature"]),
        "certs.check_signature_self_ms_per_dvc":
            ms_per_dvc(self_s["certs.check_signature"]),
        "certs.check_crl_signature_calls_per_dvc":
            per_dvc(calls["certs.check_crl_signature"]),
        "certs.parse_certificate_ms_per_cert":
            statistics.fmean(s.seconds for s in parses) * 1000,
        "crypto.verify_calls_per_dvc": per_dvc(calls["crypto.verify"]),
        "crypto.verify_self_ms_per_dvc": ms_per_dvc(self_s["crypto.verify"]),
        "crypto.sign_calls_per_dvc": per_dvc(calls["crypto.sign"]),
        "storage.load_s": sum(s.seconds for s in spans
                              if s.name == "storage.load" and s.rid == SETUP),
        "storage.graph_ms_per_dvc": ms_per_dvc(total_s["storage.graph"]),
        "pathbuild.with_extra_ms_per_dvc":
            ms_per_dvc(total_s["pathbuild.with_extra"]),
        "pathbuild.discover_ms_per_target":
            total_s["pathbuild.discover"] * 1000 / targets,
        "pathbuild.candidates_per_target":
            sum(s.attr for s in discovers) / targets,
        "validation.validate_path_calls_per_target":
            calls["validation.validate_path"] / targets,
        "validation.useful_ratio": targets / calls["validation.validate_path"],
        "validation.validate_path_self_ms_per_dvc":
            ms_per_dvc(self_s["validation.validate_path"]),
        "policytree.process_cert_calls_per_dvc":
            per_dvc(calls["policytree.process_cert"]),
        "policytree.self_ms_per_dvc": layer_self_ms("policytree."),
        "revocation.check_crl_calls_per_dvc":
            per_dvc(calls["revocation.check_crl"]),
        "revocation.check_online_calls_per_dvc":
            per_dvc(calls["revocation.check_online"]),
        "revocation.check_online_ms_per_call":
            mean_ms("revocation.check_online"),
        "revocation.responder_ms_per_call": mean_ms("revocation.responder"),
        "revocation.status_repeat_share":
            repeats / len(online) if online else 0.0,
        "protocol.parse_request_ms_per_dvc":
            ms_per_dvc(total_s["protocol.parse_request"]),
        "protocol.sign_dvc_ms_per_dvc":
            ms_per_dvc(total_s["protocol.sign_dvc"]),
        "protocol.verify_response_ms_per_dvc":
            statistics.fmean(s.seconds for s in verifies) * 1000,
        "server.handle_dvcs_bytes_ms_per_dvc": handle_ms,
        "server.admit_ms_per_dvc": ms_per_dvc(total_s["server.admit"]),
        "server.http_wait_ms_per_dvc":
            statistics.fmean(rtts_s) * 1000 - handle_ms,
    }
