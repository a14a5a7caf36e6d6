import dataclasses
import io
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from savacert import client as rp, crypto, forge, protocol
from savacert.certs import Name, fingerprint, parse_certificate
from savacert.config import ConfigError
from savacert.der import Oid
from savacert.storage import Clock
from savacert.validation import VerdictStatus

from conftest import NOW, NOW_TEXT, SERVER_NAME
from helpers import junk_in_replies, unsigned_dvc

P_HIGH = forge.POLICY_HIGH


def make_profile(url, identity, **overrides) -> rp.ClientProfile:
    profile = rp.ClientProfile(
        server_url=url,
        server_name=Name.from_string(SERVER_NAME),
        clock=Clock(fixed=NOW),
        server_cert_check="pinned",
        pinned_fingerprint=identity.fingerprint)
    for key, value in overrides.items():
        setattr(profile, key, value)
    return profile


def run_validate(profile, paths):
    out = io.StringIO()
    code = rp.validate(profile, [str(p) for p in paths], out=out)
    return code, out.getvalue()


def test_exit_code_zero_all_valid(scenarios, server_factory):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    profile = make_profile(handle.url, handle.identity)
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 0
    assert "status: VALID" in text
    assert "summary: 1 valid, 0 invalid, 0 unknown" in text


def test_exit_code_two_any_invalid(scenarios, server_factory):
    handle = server_factory(scenarios.layout("revoked-ee").out_dir,
                            policy_lines=("want_backs = crls,validationTime",))
    profile = make_profile(handle.url, handle.identity)
    code, text = run_validate(
        profile, [scenarios.cert_path("revoked-ee", "ee", "sub")])
    assert code == 2
    assert "status: INVALID" in text
    assert "REVOKED" in text
    # the CRL entry is rendered: serial, date, reason
    assert "revoked 20250102000000Z" in text
    assert "reason=KEY_COMPROMISE" in text


def test_exit_code_three_unknown(scenarios, server_factory, tmp_path):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    stranger_layout = forge.forge(forge.parse_topology(f"""
[pki]
seed = 404
[entity isle]
kind = rootCa
anchor = false
[entity lost]
kind = endEntity
[edges]
isle -> lost
"""), tmp_path / "isle")
    profile = make_profile(handle.url, handle.identity)
    code, text = run_validate(profile,
                              [stranger_layout.cert_path("lost", "isle")])
    assert code == 3
    assert "status: UNKNOWN" in text
    assert "no-path" in text


def test_exit_code_one_on_transport_error(scenarios, server_identity):
    profile = make_profile("http://127.0.0.1:1", server_identity)
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 1
    assert "transport failure" in text


def test_exit_code_one_on_error_notice(scenarios, server_factory):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    profile = make_profile(handle.url, handle.identity,
                           clock=Clock(fixed=NOW.replace(hour=12)))
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 1
    assert "BAD_TIME" in text


def test_report_golden(scenarios, server_factory):
    handle = server_factory(scenarios.layout("happy3").out_dir,
                            policy_lines=("want_backs = validationTime,chain",))
    profile = make_profile(handle.url, handle.identity)
    path = scenarios.cert_path("happy3", "ee", "sub")
    code, text = run_validate(profile, [path])
    assert code == 0
    ee = scenarios.cert("happy3", "ee", "sub")
    expected = f"""validation certificate serial 1, produced at 20250131000000Z
== {path}
    status: VALID
    authorized policies: 1.3.6.1.4.1.57264.8.1
    validation time: 20250131000000Z
    chain: O=Test PKI, CN=root -> O=Test PKI, CN=sub -> O=Test PKI, CN=ee
    fingerprint: {fingerprint(ee).hex()}
summary: 1 valid, 0 invalid, 0 unknown
"""
    assert text == expected


class FaultServer:
    """HTTP double that transforms each incoming request into a scripted
    response (used for nonce/signature/unsigned fault injection)."""

    def __init__(self, transform):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(
                    int(self.headers.get("Content-Length", "0")))
                response = outer.transform(body)
                self.send_response(200)
                self.send_header("Content-Type", protocol.DVCS_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(response)))
                self.end_headers()
                self.wfile.write(response)

            def log_message(self, *args):
                pass

        self.transform = transform
        self.httpd = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=self.httpd.serve_forever,
                         kwargs={"poll_interval": 0.05}, daemon=True).start()

    @property
    def url(self):
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def fault_server(server_identity):
    doubles = []

    def start(transform):
        double = FaultServer(transform)
        doubles.append(double)
        return double

    yield start
    for double in doubles:
        double.stop()


def _result_for(request):
    return protocol.TargetResult(
        request.target_fingerprints()[0],
        __import__("savacert.validation", fromlist=["x"]).VerdictStatus.VALID)


def test_wrong_nonce_rejected(scenarios, server_identity, fault_server):
    key = crypto.decode_key(server_identity.key_path.read_bytes())

    def transform(body):
        request = protocol.parse_request(body)
        twisted = dataclasses.replace(request.info,
                                      nonce=request.info.nonce ^ 1)
        info = protocol.DvcInfo(1, NOW, twisted, (_result_for(request),))
        return protocol.sign_dvc(info, server_identity.certificate, key)

    double = fault_server(transform)
    profile = make_profile(double.url, server_identity)
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 1
    assert "NonceMismatch" in text


def test_echo_mismatch_rejected(scenarios, server_identity, fault_server):
    key = crypto.decode_key(server_identity.key_path.read_bytes())

    def transform(body):
        request = protocol.parse_request(body)
        twisted = dataclasses.replace(
            request.info, request_time=request.info.request_time.replace(
                second=59))
        info = protocol.DvcInfo(1, NOW, twisted, (_result_for(request),))
        return protocol.sign_dvc(info, server_identity.certificate, key)

    double = fault_server(transform)
    profile = make_profile(double.url, server_identity)
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 1
    assert "EchoMismatch" in text


def test_unsigned_response_per_profile(scenarios, server_identity,
                                       fault_server):
    def transform(body):
        request = protocol.parse_request(body)
        info = protocol.DvcInfo(1, NOW, request.info, (_result_for(request),))
        return unsigned_dvc(info)

    double = fault_server(transform)
    strict = make_profile(double.url, server_identity,
                          server_cert_check="none")
    code, text = run_validate(
        strict, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 1 and "UnsignedRejected" in text

    # never VALID without a verified signature unless explicitly opted in
    lenient = make_profile(double.url, server_identity,
                           server_cert_check="none", trust_unsigned=True)
    code, text = run_validate(
        lenient, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 0


def _signed_results(server_identity, results_for):
    """A FaultServer transform answering with a correctly signed DVC that
    carries ``results_for(request)``."""
    key = crypto.decode_key(server_identity.key_path.read_bytes())

    def transform(body):
        request = protocol.parse_request(body)
        info = protocol.DvcInfo(1, NOW, request.info, results_for(request))
        return protocol.sign_dvc(info, server_identity.certificate, key)

    return transform


def test_dvc_without_results_rejected(scenarios, server_identity,
                                      fault_server):
    double = fault_server(_signed_results(server_identity, lambda r: ()))
    profile = make_profile(double.url, server_identity)
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 1
    assert text.startswith("error:") and "summary:" not in text


def test_result_for_another_certificate_rejected(scenarios, server_identity,
                                                 fault_server):
    other = fingerprint(scenarios.cert("happy3", "sub", "root"))

    def results_for(request):
        return (protocol.TargetResult(other, VerdictStatus.VALID),)

    double = fault_server(_signed_results(server_identity, results_for))
    profile = make_profile(double.url, server_identity)
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 1
    assert text.startswith("error:") and other.hex() not in text


def test_tampered_signature_rejected(scenarios, server_identity,
                                     fault_server):
    key = crypto.decode_key(server_identity.key_path.read_bytes())

    def transform(body):
        request = protocol.parse_request(body)
        info = protocol.DvcInfo(1, NOW, request.info, (_result_for(request),))
        raw = bytearray(protocol.sign_dvc(info, server_identity.certificate,
                                          key))
        raw[-1] ^= 0x01
        return bytes(raw)

    double = fault_server(transform)
    profile = make_profile(double.url, server_identity)
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 1
    assert "BadServerSignature" in text


def test_signed_junk_reply_entry_is_unparseable(scenarios, server_identity,
                                                fault_server):
    # the server signs a DVC whose online-replies list holds an INTEGER
    key = crypto.decode_key(server_identity.key_path.read_bytes())

    def transform(body):
        request = protocol.parse_request(body)
        result = dataclasses.replace(
            _result_for(request),
            evidence=protocol.EvidenceOut(replies=(b"reply",)))
        info = protocol.DvcInfo(1, NOW, request.info, (result,))
        return protocol._signed_envelope(
            protocol._KIND_DVC, junk_in_replies(protocol.dvc_info_value(info)),
            server_identity.certificate, key)

    double = fault_server(transform)
    profile = make_profile(double.url, server_identity)
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 1
    assert text.startswith("error: unparseable response:")


def test_signer_with_malformed_key_is_a_bad_signature(scenarios,
                                                     server_identity,
                                                     fault_server):
    # a 5-byte public key verifies nothing: a clean error, not a traceback
    key = crypto.decode_key(server_identity.key_path.read_bytes())
    signer = dataclasses.replace(server_identity.certificate,
                                 public_key=b"\x01" * 5)

    def transform(body):
        request = protocol.parse_request(body)
        info = protocol.DvcInfo(1, NOW, request.info, (_result_for(request),))
        return protocol.sign_dvc(info, signer, key)

    double = fault_server(transform)
    profile = make_profile(double.url, server_identity)
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 1
    assert text == ("error: BadServerSignature: "
                    "server signature does not verify\n")


def test_wrong_pin_rejected(scenarios, server_factory):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    profile = make_profile(handle.url, handle.identity,
                           pinned_fingerprint=b"\x00" * 32)
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 1
    assert "ServerCertRejected" in text


class _RepoIdentity:
    """Server identity living inside the repository (so the built-in
    responder can answer for the server's own certificate)."""

    def __init__(self, layout, label):
        self.key_path = layout.keys[label]
        self.cert_path = layout.cert_path(label, label)
        self.certificate = parse_certificate(self.cert_path.read_bytes())
        self.fingerprint = fingerprint(self.certificate)


_SELF_HOSTED = f"""
[pki]
seed = 71
[entity cvs]
kind = rootCa
name = {SERVER_NAME}
anchor = false
[entity root]
kind = rootCa
policies = {P_HIGH}
[entity sub]
kind = subCa
policies = {P_HIGH}
[entity ee]
kind = endEntity
policies = {P_HIGH}
[edges]
root -> sub
sub -> ee
{{revocations}}
"""


def _self_hosted(tmp_path, server_factory, revoke_server: bool):
    revocations = ("[revocations]\ncvs cvs 20250102000000Z caCompromise"
                   if revoke_server else "")
    text = _SELF_HOSTED.format(revocations=revocations)
    layout = forge.forge(forge.parse_topology(text),
                         tmp_path / ("rev" if revoke_server else "ok"))
    identity = _RepoIdentity(layout, "cvs")
    handle = server_factory(layout.out_dir, identity=identity)
    return layout, identity, handle


def test_online_server_cert_check_good(scenarios, server_factory, tmp_path):
    layout, identity, handle = _self_hosted(tmp_path, server_factory, False)
    profile = make_profile(handle.url, identity,
                           server_cert_check="online",
                           responder_cert_path=identity.cert_path)
    code, text = run_validate(profile, [layout.cert_path("ee", "sub")])
    assert code == 0


def test_online_server_cert_check_revoked(scenarios, server_factory,
                                          tmp_path):
    layout, identity, handle = _self_hosted(tmp_path, server_factory, True)
    profile = make_profile(handle.url, identity,
                           server_cert_check="online",
                           responder_cert_path=identity.cert_path)
    code, text = run_validate(profile, [layout.cert_path("ee", "sub")])
    assert code == 1
    assert "ServerCertRejected" in text


def test_thin_mode(scenarios, server_factory, tmp_path):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    profile = make_profile(handle.url, handle.identity, thin=True)
    code, _ = run_validate(profile,
                           [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 0

    # thin clients skip local parsing: garbage reaches the server and comes
    # back as a protocol-level notice instead of a local parse error
    garbage = tmp_path / "garbage.der"
    garbage.write_bytes(b"\x99\x88\x77")
    code, text = run_validate(profile, [garbage])
    assert code == 1
    assert "MALFORMED_REQUEST" in text

    fat = make_profile(handle.url, handle.identity, thin=False)
    code, text = run_validate(fat, [garbage])
    assert code == 1
    assert "MALFORMED_REQUEST" not in text  # rejected locally before sending

    # online checking degrades to the pinned fingerprint in thin mode
    thin_online = make_profile(handle.url, handle.identity, thin=True,
                               server_cert_check="online")
    assert thin_online.effective_cert_check() == "pinned"


def test_supplied_chain_via_profile(scenarios, server_factory):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    profile = make_profile(
        handle.url, handle.identity,
        supply=(scenarios.cert_path("happy3", "sub", "root"),),
        want_backs=frozenset({protocol.WantBack.CHAIN}))
    code, text = run_validate(
        profile, [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 0
    assert "chain:" in text


def test_store_evidence_and_inspect(scenarios, server_factory, tmp_path):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    evidence = tmp_path / "evidence"
    profile = make_profile(handle.url, handle.identity,
                           store_evidence=evidence)
    code, _ = run_validate(profile,
                           [scenarios.cert_path("happy3", "ee", "sub")])
    assert code == 0
    stored = list(evidence.glob("dvc-*.der"))
    assert len(stored) == 1

    out = io.StringIO()
    assert rp.inspect(stored[0], out=out) == 0
    text = out.getvalue()
    assert "validation certificate (DVC):" in text
    assert "serial: 1" in text
    assert "status: VALID" in text


def test_inspect_certificate_and_crl(scenarios, tmp_path):
    out = io.StringIO()
    assert rp.inspect(scenarios.cert_path("revoked-ee", "ee", "sub"),
                      out=out) == 0
    assert "certificate:" in out.getvalue()

    out = io.StringIO()
    assert rp.inspect(scenarios.layout("revoked-ee").crls["sub"],
                      out=out) == 0
    text = out.getvalue()
    assert "certificate revocation list:" in text
    assert "reason=KEY_COMPROMISE" in text

    garbage = tmp_path / "noise.bin"
    garbage.write_bytes(b"\x00\x01\x02")
    out = io.StringIO()
    assert rp.inspect(garbage, out=out) == 1


def test_profile_parsing_and_validation(tmp_path):
    text = f"""
[client]
server_url = http://127.0.0.1:9999
server_name = {SERVER_NAME}
acceptable_policies = {P_HIGH}
explicit_policy_required = true
want = chain, time
trust_unsigned = false
server_cert_check = pinned
pinned_fingerprint = {"ab" * 32}
clock = fixed {NOW_TEXT}
thin = true
"""
    profile = rp.parse_profile(text, tmp_path)
    assert profile.acceptable_policies == (P_HIGH,)
    assert profile.explicit_policy_required
    assert profile.want_backs == frozenset(
        {protocol.WantBack.CHAIN, protocol.WantBack.VALIDATION_TIME})
    assert profile.clock.fixed == NOW
    assert profile.thin

    with pytest.raises(ConfigError):
        rp.parse_profile("[client]\nwant = chain, nonsense\n", tmp_path)
    with pytest.raises(ConfigError):
        rp.parse_profile("[client]\nmystery_key = 1\n", tmp_path)
    for setting in ("fixed", "fixed 2025", "fixed-ish",
                    "fixed 20250231000000Z", "system now"):
        with pytest.raises(ConfigError, match=r"^clock: "):
            rp.parse_profile(f"[client]\nclock = {setting}\n", tmp_path)

    bad = rp.ClientProfile(sign_request=True)
    with pytest.raises(rp.ProfileError):
        bad.check()
    conflicted = rp.ClientProfile(weak_usage="e-mail",
                                  acceptable_policies=(P_HIGH,))
    with pytest.raises(rp.ProfileError):
        conflicted.check()


def test_weak_usage_default_means_any_policy(server_identity):
    profile = make_profile("http://x", server_identity,
                           weak_usage="Default")
    cpr = profile.cpr()
    assert cpr.mode == "strict" and cpr.acceptable_set == ()


def test_profile_to_request_matrix(scenarios, server_identity):
    """Every profile field that shapes the request provably alters the
    emitted DER; the remaining fields alter verification or storage and are
    covered by the fault-double and evidence tests above."""
    ee = scenarios.cert("happy3", "ee", "sub")
    layout = scenarios.layout("happy3")
    base = make_profile("http://base", server_identity)
    base.server_name = None

    def der_of(profile):
        request = rp.build_client_request(
            profile, [ee],
            supplied=[scenarios.cert("happy3", "sub", "root")]
            if profile.supply else (),
            signer_key=crypto.decode_key(layout.keys["root"].read_bytes())
            if profile.sign_request else None,
            signer_cert=scenarios.cert("happy3", "root", "root")
            if profile.sign_request else None,
            nonce=1)
        return protocol.encode_request(request)

    variants = {
        "server_name": make_profile("http://x", server_identity),
        "acceptable_policies": dataclasses.replace(
            base, acceptable_policies=(P_HIGH,)),
        "explicit_policy_required": dataclasses.replace(
            base, explicit_policy_required=True),
        "inhibit_policy_mapping": dataclasses.replace(
            base, inhibit_policy_mapping=True),
        "weak_usage": dataclasses.replace(base, weak_usage="e-mail"),
        "request_policy": dataclasses.replace(
            base, request_policy=Oid("1.3.6.1.4.1.57264.3.1")),
        "want_backs": dataclasses.replace(
            base, want_backs=frozenset({protocol.WantBack.CRLS})),
        "time_override": dataclasses.replace(base, time_override=NOW),
        "supply": dataclasses.replace(
            base, supply=(layout.cert_path("sub", "root"),)),
        "sign_request": dataclasses.replace(
            base, sign_request=True, key_path=layout.keys["root"],
            cert_path=layout.cert_path("root", "root")),
        "clock": dataclasses.replace(
            base, clock=Clock(fixed=NOW.replace(minute=5))),
    }
    baseline = der_of(base)
    for field_name, profile in variants.items():
        assert der_of(profile) != baseline, field_name


def test_cli_main(scenarios, server_factory, tmp_path, capsys):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    profile_text = f"""
[client]
server_url = {handle.url}
server_name = {SERVER_NAME}
clock = fixed {NOW_TEXT}
server_cert_check = pinned
pinned_fingerprint = {handle.identity.fingerprint.hex()}
"""
    profile_path = tmp_path / "profile.cfg"
    profile_path.write_text(profile_text)
    target = scenarios.cert_path("happy3", "ee", "sub")
    assert rp.main(["validate", "--profile", str(profile_path),
                    str(target)]) == 0
    out = capsys.readouterr().out
    assert "status: VALID" in out

    # flag overrides beat the profile: an unknown weak usage fails
    assert rp.main(["validate", "--profile", str(profile_path),
                    "--weak-usage", "fax", str(target)]) == 1
    assert rp.main(["inspect", str(target)]) == 0

    # a malformed time, in a flag or in the profile, is a clean error
    capsys.readouterr()
    for argv in (["--clock-fixed", "2025"], ["--time-override", "2025"]):
        assert rp.main(["validate", *argv, str(target)]) == 1
    for line in ("clock = fixed", "clock = fixed 2025",
                 "time_override = 2025"):
        profile_path.write_text(f"[client]\n{line}\n")
        assert rp.main(["validate", "--profile", str(profile_path),
                        str(target)]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 5
    assert all(e.startswith("error: ") for e in errors)
    assert errors[2:4] == [
        "error: clock: expected 'system' or 'fixed <time>', got 'fixed'",
        "error: clock: malformed GeneralizedTime '2025'"]


@pytest.mark.parametrize("flag", ["--clock-fixed", "--time-override"])
def test_cli_empty_time_is_an_error(scenarios, monkeypatch, capsys, flag):
    posted = []

    def post(*args):
        posted.append(args)
        raise OSError("no transport here")

    monkeypatch.setattr(rp, "_post", post)
    target = scenarios.cert_path("happy3", "ee", "sub")
    assert rp.main(["validate", flag, "", str(target)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert posted == []


@pytest.mark.parametrize("line, where", [
    ("explicit_policy_requried = true",
     "unknown key 'explicit_policy_requried'"),
    ("thin = ture", "thin: "),
    ("server_name = bogus", "server_name: "),
    ("request_policy = not.an.oid", "request_policy: "),
    ("acceptable_policies = 1.2.3, 1.2.x", "acceptable_policies: "),
    ("pinned_fingerprint = zz", "pinned_fingerprint: "),
    ("server_url = not-a-url", "server_url: "),
    ("server_cert_check = sometimes", "server_cert_check: "),
    ("time_override = 2025", "time_override: "),
    ("want = chain, onlineReplies", "want: "),
], ids=["key", "bool", "name", "oid", "oid-list", "fingerprint", "url",
        "one-of", "time", "word-set"])
def test_bad_profile_settings_fail_naming_the_key(tmp_path, capsys, line,
                                                  where):
    with pytest.raises(ConfigError) as raised:
        rp.parse_profile(f"[client]\n{line}\n", tmp_path)
    assert str(raised.value).startswith(where)
    profile_path = tmp_path / "profile.cfg"
    profile_path.write_text(f"[client]\n{line}\n")
    assert rp.main(["validate", "--profile", str(profile_path), "t.der"]) == 1
    assert capsys.readouterr().err == f"error: {raised.value}\n"


@pytest.mark.parametrize("argv", [
    ["--server-name", "bogus"], ["--pin", "zz"],
    ["--request-policy", "not.an.oid"], ["--strict-policy", "1.2.x"],
    ["--server-url", "not-a-url"], ["--want", "chain,nonsense"],
    ["--time-override", "2025"], ["--clock-fixed", "2025"]],
    ids=lambda argv: argv[0])
def test_bad_flag_values_fail_naming_the_flag(monkeypatch, capsys, argv):
    posted = []
    monkeypatch.setattr(rp, "_post", lambda *args: posted.append(args))
    assert rp.main(["validate", *argv, "t.der"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]}: ") and err.count("\n") == 1
    assert posted == []


def test_flags_load_the_profile_their_keys_load(tmp_path, monkeypatch):
    loaded = []
    monkeypatch.setattr(rp, "validate",
                        lambda profile, targets: loaded.append(profile) or 0)
    pin = "ab" * 32
    profile_path = tmp_path / "profile.cfg"
    profile_path.write_text(f"""
[client]
server_url = http://127.0.0.1:1
server_name = {SERVER_NAME}
acceptable_policies = 1.2.3, 1.2.4
explicit_policy_required = true
inhibit_policy_mapping = true
weak_usage = e-mail
request_policy = 1.2.5
want = chain, time
sign_request = true
key = {tmp_path}/client.key
certificate = {tmp_path}/client.der
trust_unsigned = true
pinned_fingerprint = {pin}
server_cert_check = online
responder_certificate = {tmp_path}/cvs.der
store_evidence = {tmp_path}/evidence
supply = {tmp_path}/a.der ; {tmp_path}/b.der
thin = true
time_override = {NOW_TEXT}
clock = fixed {NOW_TEXT}
""")
    assert rp.main(["validate", "--profile", str(profile_path), "t.der"]) == 0
    assert rp.main([
        "validate", "--server-url", "http://127.0.0.1:1",
        "--server-name", SERVER_NAME, "--strict-policy", "1.2.3,1.2.4",
        "--explicit-policy", "--inhibit-mapping", "--weak-usage", "e-mail",
        "--request-policy", "1.2.5", "--want", "chain,time", "--sign",
        "--key", f"{tmp_path}/client.key",
        "--certificate", f"{tmp_path}/client.der", "--trust-unsigned",
        "--pin", pin, "--server-cert-check", "online",
        "--responder-certificate", f"{tmp_path}/cvs.der",
        "--store-evidence", f"{tmp_path}/evidence",
        "--supply", f"{tmp_path}/a.der,{tmp_path}/b.der", "--thin",
        "--time-override", NOW_TEXT, "--clock-fixed", NOW_TEXT,
        "t.der"]) == 0
    assert loaded[0] == loaded[1]
    assert loaded[0].supply[1].name == "b.der" and loaded[0].thin
