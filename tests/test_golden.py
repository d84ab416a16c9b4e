"""Golden reports: every command on every bundled fixture, pinned by digest.

Each entry is (fixture, command, exit code, sha256 of the report file).
The digests were captured before the single-validation refactor, so this
test guards the promise that reports stay byte-identical across changes to
the library, not only across two runs of the same code.
"""

import contextlib
import hashlib
import io

import pytest

from descent_kit.cli import main
from conftest import FIXTURES

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
]


@pytest.mark.parametrize("fixture,command,code,digest", GOLDEN)
def test_golden_report(fixture, command, code, digest, tmp_path):
    out = tmp_path / "report.json"
    with contextlib.redirect_stderr(io.StringIO()):
        got = main(command.split() + ["--input", str(FIXTURES / fixture),
                                      "--output", str(out)])
    assert (got, hashlib.sha256(out.read_bytes()).hexdigest()) == (code, digest)
