"""Shows that the benchmark's response oracle counts bad responses as
failed operations.

    python3 bench/selfcheck.py

Runs four genuine transactions of ``mesh3-crl`` (one of them revoked)
against an in-process server and requires that the oracle accepts all of
them.  It then forges four bad responses from them and requires that each
is counted as failed:

* a DVC whose signature byte was flipped after signing;
* a DVC with a wrong verdict, validly signed with the server key, which
  only the spec-derived oracle can catch;
* a validly signed error notice;
* a transport error.

Exits 0 when the oracle behaves as required, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

from run import SRC, WORK


def main() -> int:
    if not (SRC / "savacert" / "server.py").is_file():
        print(f"error: no savacert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import (InProcessServer, RequestSource, check_samples,
                         closed_loop, make_fixture)
    from savacert import protocol
    from savacert.validation import FailureReason, VerdictStatus
    from workloads import WORKLOADS

    workload = WORKLOADS["mesh3-crl"]
    work = WORK / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        fixture = make_fixture(workload, 1, work)
        srv = InProcessServer(fixture)
        try:
            loop = closed_loop(
                fixture.port,
                RequestSource(fixture, workload.target_order(1), 1),
                connections=1, seconds=0, warmup=len(workload.ees))
        finally:
            srv.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    genuine = loop.samples
    problems = check_samples(genuine, fixture)
    if problems:
        print(f"FAIL: genuine responses rejected: {list(problems.values())}")
        return 1
    good = next(s for s in genuine
                if workload.expected(s.target)[0] == "valid")

    tampered = bytearray(good.response)
    tampered[-1] ^= 0x01  # last byte of the signature BIT STRING

    message = protocol.parse_response(good.response)
    wrong_result = dataclasses.replace(
        message.info.results[0], status=VerdictStatus.INVALID,
        reason=FailureReason.REVOKED, failing_index=1)
    wrong_verdict = protocol.sign_dvc(
        dataclasses.replace(message.info, results=(wrong_result,)),
        srv.core.certificate, srv.core.key)

    notice = protocol.sign_error_notice(
        protocol.ErrorNotice(protocol.ErrorCode.INTERNAL_ERROR,
                             "internal server error", good.info),
        srv.core.certificate, srv.core.key)

    bad = {
        "tampered DVC": dataclasses.replace(good, response=bytes(tampered)),
        "wrong verdict": dataclasses.replace(good, response=wrong_verdict),
        "error notice": dataclasses.replace(good, response=notice),
        "transport error": dataclasses.replace(
            good, response=None, error="ConnectionResetError: reset"),
    }
    problems = check_samples(bad.values(), fixture)
    ok = True
    for label, sample in bad.items():
        why = problems.get(id(sample))
        print(f"{label}: {'counted as failed' if why else 'NOT COUNTED'}"
              f"{f' ({why})' if why else ''}")
        ok = ok and why is not None
    print(f"genuine responses accepted: {len(genuine)}; bad responses "
          f"counted as failed: {len(problems)} of {len(bad)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
