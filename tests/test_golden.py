"""Golden reports: every command on every bundled fixture, and on every
document under ``tests/documents``, pinned by digest.

Each entry is (fixture or document, command, exit code, sha256 of the
report file).
The digests were captured before the single-validation refactor, so this
test guards the promise that reports stay byte-identical across changes to
the library, not only across two runs of the same code.
"""

import contextlib
import hashlib
import io

import pytest

from descent_kit.cli import main
from conftest import DOCUMENTS, FIXTURES

GOLDEN = [
    ("adjoint_f2.json", "validate", 0, "d8fbff9c08e89ed0a3e058cce4d3a831221f66d0a10f10b44d32d691ee160263"),
    ("adjoint_f2.json", "matrix", 0, "2ba6c477577fa9dfc93bb48c8a9dd83774e2b30e6ac269bf8d6bab548f94b611"),
    ("adjoint_f2.json", "descend", 0, "9679229c108dba5a743b7652d852fdf2b838efa9138f1270d972a34fb0a9243e"),
    ("adjoint_f2.json", "descend --audit", 0, "5b91144df88de4201dc96831c57ab556c314cf82d33c70c2fb23b85580dbe3d7"),
    ("adjoint_f2.json", "adjoint-check", 0, "5f9efe02c50a1027eb9e19a9966812a37f796d224484c04f8c2bffad30d00e30"),
    ("adjoint_f2.json", "compose-check", 1, "86c1d7c9328d6727e229591e79008c40f456681969384a7a0281baa9e0256aa0"),
    ("compose_difference.json", "validate", 0, "a8412bce163bbadb6d1fd8573f3361ef221896f8cc5ddd81665b92214c9ce928"),
    ("compose_difference.json", "matrix", 0, "2ba6c477577fa9dfc93bb48c8a9dd83774e2b30e6ac269bf8d6bab548f94b611"),
    ("compose_difference.json", "descend", 0, "1ea955c5325e3c1db96aea453a042cff2b2e22a077bd471896f23570a533d351"),
    ("compose_difference.json", "descend --audit", 0, "754f8e353ac9998c965e7dc17fc2174808dcff85e13c60896e9290e64c5e507d"),
    ("compose_difference.json", "adjoint-check", 1, "e8a7563b556af64d01ad23cebdf1e0a36a995905316127c15a68b9fec252f1d1"),
    ("compose_difference.json", "compose-check", 0, "7260a986d0fad628fe465f92026704e54927c94d77ab701545a15a327f759aa2"),
    ("differential.json", "validate", 0, "a8412bce163bbadb6d1fd8573f3361ef221896f8cc5ddd81665b92214c9ce928"),
    ("differential.json", "matrix", 0, "b466b3eaf81623fcf5224696b96a400d16f5d8fb3649279417d69f18d6a7123b"),
    ("differential.json", "descend", 0, "a24911bcef18b97de4aa10ab4e2aaa24584939ca67045919515d9e949e6c384e"),
    ("differential.json", "descend --audit", 0, "067ea5383cd19d6a5fc6bc60227c27a78ecb7c2b2dc3bda18f65b4d07a791a02"),
    ("differential.json", "adjoint-check", 1, "e8a7563b556af64d01ad23cebdf1e0a36a995905316127c15a68b9fec252f1d1"),
    ("differential.json", "compose-check", 1, "86c1d7c9328d6727e229591e79008c40f456681969384a7a0281baa9e0256aa0"),
    ("frobenius_square.json", "validate", 0, "a8412bce163bbadb6d1fd8573f3361ef221896f8cc5ddd81665b92214c9ce928"),
    ("frobenius_square.json", "matrix", 0, "2ba6c477577fa9dfc93bb48c8a9dd83774e2b30e6ac269bf8d6bab548f94b611"),
    ("frobenius_square.json", "descend", 0, "1ea955c5325e3c1db96aea453a042cff2b2e22a077bd471896f23570a533d351"),
    ("frobenius_square.json", "descend --audit", 0, "754f8e353ac9998c965e7dc17fc2174808dcff85e13c60896e9290e64c5e507d"),
    ("frobenius_square.json", "adjoint-check", 1, "e8a7563b556af64d01ad23cebdf1e0a36a995905316127c15a68b9fec252f1d1"),
    ("frobenius_square.json", "compose-check", 1, "86c1d7c9328d6727e229591e79008c40f456681969384a7a0281baa9e0256aa0"),
    ("introduction.json", "validate", 0, "a8412bce163bbadb6d1fd8573f3361ef221896f8cc5ddd81665b92214c9ce928"),
    ("introduction.json", "matrix", 0, "9eb8b482557b581dd26d9d3387f8389aec8230b54448ea690685021cedf82dc7"),
    ("introduction.json", "descend", 2, "ddd6e183357b468e2e310e09f8389337e3da0380cea056c1e5874e5a1fa16159"),
    ("introduction.json", "descend --audit", 2, "ddd6e183357b468e2e310e09f8389337e3da0380cea056c1e5874e5a1fa16159"),
    ("introduction.json", "adjoint-check", 0, "55f637e0c60a773557b892bf23c2aefc166de1ce0993a7286304b20f43526c01"),
    ("introduction.json", "compose-check", 1, "86c1d7c9328d6727e229591e79008c40f456681969384a7a0281baa9e0256aa0"),
    ("split_base.json", "validate", 0, "d8fbff9c08e89ed0a3e058cce4d3a831221f66d0a10f10b44d32d691ee160263"),
    ("split_base.json", "matrix", 0, "3d3c38c11e87c04257a0c4d6c14f823dfaae334e510bef2a8cbdd7759267df3d"),
    ("split_base.json", "descend", 0, "870066608beda804519c5fa2ffe0c438ac838c9b6c9eca4cc1ac0c6d3a6b9600"),
    ("split_base.json", "descend --audit", 0, "c50912a1480572047a8500f635957cf185b86803364c77175b3654612b746176"),
    ("split_base.json", "adjoint-check", 0, "5f9efe02c50a1027eb9e19a9966812a37f796d224484c04f8c2bffad30d00e30"),
    ("split_base.json", "compose-check", 0, "a02f5d752c74de5f8e07db3fa75714d183cb8a0bc518493fd87a5a3ee05402ba"),
    ("unit_pivot.json", "validate", 0, "d8fbff9c08e89ed0a3e058cce4d3a831221f66d0a10f10b44d32d691ee160263"),
    ("unit_pivot.json", "matrix", 0, "100c1caaa23d9b0497c075533b97bd39af49b3a59fc68516e24dc2c12ea117de"),
    ("unit_pivot.json", "descend", 0, "d09f4b03c9035422f8def8993574dd703e7029517432659475b6464e3fefe176"),
    ("unit_pivot.json", "descend --audit", 0, "0faf5cfe57377ec5861a324bbfdf5fe993d2924236ce1696c3d227bf9a7455aa"),
    ("unit_pivot.json", "adjoint-check", 0, "b14a53b494eab34c64ee00d57757d33b9b08c15cfd195ee5c864b9f996cf3aca"),
    ("unit_pivot.json", "compose-check", 0, "a02f5d752c74de5f8e07db3fa75714d183cb8a0bc518493fd87a5a3ee05402ba"),
]


# the documents under tests/documents, each pinning a route no fixture
# takes: no_border_basis.json (A = QQ[a], y^2 = a y) builds B's flat ring by
# Buchberger, since its table is not a border basis, and
# introduction_solvable.json (introduction.json with z = 1) solves the
# obstruction evidence's system
ROUTES = [
    ("introduction_solvable.json", "validate", 0, "a8412bce163bbadb6d1fd8573f3361ef221896f8cc5ddd81665b92214c9ce928"),
    ("introduction_solvable.json", "matrix", 0, "9eb8b482557b581dd26d9d3387f8389aec8230b54448ea690685021cedf82dc7"),
    ("introduction_solvable.json", "descend", 2, "ddd6e183357b468e2e310e09f8389337e3da0380cea056c1e5874e5a1fa16159"),
    ("introduction_solvable.json", "descend --audit", 2, "ddd6e183357b468e2e310e09f8389337e3da0380cea056c1e5874e5a1fa16159"),
    ("introduction_solvable.json", "adjoint-check", 0, "cd2f6abde7e4d867d3e501e9e08b588c2dd87c0bdfdde804f9249043aab18d97"),
    ("introduction_solvable.json", "compose-check", 1, "86c1d7c9328d6727e229591e79008c40f456681969384a7a0281baa9e0256aa0"),
    ("no_border_basis.json", "validate", 0, "d8fbff9c08e89ed0a3e058cce4d3a831221f66d0a10f10b44d32d691ee160263"),
    ("no_border_basis.json", "matrix", 0, "2ba6c477577fa9dfc93bb48c8a9dd83774e2b30e6ac269bf8d6bab548f94b611"),
    ("no_border_basis.json", "descend", 0, "e13964b61d1f9964fc2de1f4f5e012ebb3593f3b2ab987aa7ed70bc3b0b6cfab"),
    ("no_border_basis.json", "descend --audit", 0, "9141321c4038b94492554959bb180be65003563e242006a3b1198902c9075b0d"),
    ("no_border_basis.json", "adjoint-check", 1, "661d5af102db582fa7d7c747a6c0bcd223a5b7e02f99a58e10e2920595d7105f"),
    ("no_border_basis.json", "compose-check", 1, "86c1d7c9328d6727e229591e79008c40f456681969384a7a0281baa9e0256aa0"),
]


def _digest(source, command, tmp_path):
    out = tmp_path / "report.json"
    with contextlib.redirect_stderr(io.StringIO()):
        got = main(command.split() + ["--input", str(source), "--output", str(out)])
    return got, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("fixture,command,code,digest", GOLDEN)
def test_golden_report(fixture, command, code, digest, tmp_path):
    assert _digest(FIXTURES / fixture, command, tmp_path) == (code, digest)


@pytest.mark.parametrize("document,command,code,digest", ROUTES)
def test_route_report(document, command, code, digest, tmp_path):
    assert _digest(DOCUMENTS / document, command, tmp_path) == (code, digest)
