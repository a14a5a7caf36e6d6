import datetime
import threading

import pytest

from savacert import forge, revocation, server as cvs_server
from savacert.certs import fingerprint, parse_certificate

EPOCH = datetime.datetime(2025, 1, 1, tzinfo=datetime.timezone.utc)
NOW = datetime.datetime(2025, 1, 31, tzinfo=datetime.timezone.utc)
NOW_TEXT = "20250131000000Z"

SERVER_NAME = "C=IT, O=Validation Service, CN=CVS Demo"
DEFAULT_POLICY_OID = "1.3.6.1.4.1.57264.3.1"

_SERVER_IDENTITY_SPEC = f"""
[pki]
seed = 9000
[entity cvs]
kind = rootCa
name = {SERVER_NAME}
"""


class ScenarioStore:
    """Builds each forge scenario once per test session."""

    def __init__(self, root):
        self.root = root
        self._layouts = {}

    def layout(self, name):
        if name not in self._layouts:
            self._layouts[name] = forge.scenario(name, self.root / name)
        return self._layouts[name]

    def cert(self, name, subject, issuer):
        path = self.layout(name).cert_path(subject, issuer)
        return parse_certificate(path.read_bytes())

    def cert_path(self, name, subject, issuer):
        return self.layout(name).cert_path(subject, issuer)


@pytest.fixture(scope="session")
def scenarios(tmp_path_factory):
    return ScenarioStore(tmp_path_factory.mktemp("scenarios"))


class ServerIdentity:
    def __init__(self, layout):
        self.key_path = layout.keys["cvs"]
        self.cert_path = layout.cert_path("cvs", "cvs")
        self.certificate = parse_certificate(self.cert_path.read_bytes())
        self.fingerprint = fingerprint(self.certificate)


@pytest.fixture(scope="session")
def server_identity(tmp_path_factory):
    layout = forge.forge(forge.parse_topology(_SERVER_IDENTITY_SPEC),
                         tmp_path_factory.mktemp("identity"))
    return ServerIdentity(layout)


class RunningServer:
    def __init__(self, core, httpd, identity):
        self.core = core
        self.httpd = httpd
        self.identity = identity

    @property
    def url(self):
        return self.httpd.url

    def stop(self):
        self.httpd.shutdown()
        self.httpd.server_close()


def make_server_config(repo_dir, state_dir, identity, *, clock=NOW_TEXT,
                       revocation="crl", responder_url=None,
                       policy_lines=(), server_lines=()):
    policy_extra = "".join(line + "\n" for line in policy_lines)
    server_extra = "".join(line + "\n" for line in server_lines)
    responder = (f"responder_url = {responder_url}\n"
                 if responder_url is not None else "")
    return f"""
[server]
name = {SERVER_NAME}
listen = 127.0.0.1:0
key = {identity.key_path}
certificate = {identity.cert_path}
repository = {repo_dir}
serial_state = {state_dir}/serial
clock = fixed {clock}
{responder}{server_extra}
[policy default]
oid = {DEFAULT_POLICY_OID}
default = true
anchors = *
revocation = {revocation}
{policy_extra}
"""


@pytest.fixture
def server_factory(tmp_path, server_identity):
    """Start in-process HTTP servers; everything stops at test teardown."""
    running = []
    counter = [0]

    def start(repo_dir, identity=None, **kwargs):
        counter[0] += 1
        state_dir = tmp_path / f"state{counter[0]}"
        state_dir.mkdir()
        own_responder = (kwargs.get("revocation") in ("online",
                                                      "crl-then-online")
                         and kwargs.get("responder_url") is None)
        if own_responder:
            kwargs["responder_url"] = "http://placeholder.invalid/status"
        text = make_server_config(repo_dir, state_dir,
                                  identity or server_identity, **kwargs)
        config = cvs_server.parse_server_config(text, tmp_path)
        core = cvs_server.CvsServer(config)
        httpd = cvs_server.CvsHttpServer(core)
        # a short poll lets shutdown() at teardown return quickly
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        if own_responder:
            # point at the server's own responder once the port is known
            core.config.responder_url = httpd.url + "/status"
        handle = RunningServer(core, httpd, identity or server_identity)
        running.append(handle)
        return handle

    yield start
    for handle in running:
        handle.stop()
    # a pooled status connection would hold its handler thread, and could
    # reach a stopped server through a reused port
    with revocation._idle_lock:
        for connection in sum(revocation._idle.values(), []):
            connection.close()
        revocation._idle.clear()
