"""Golden CLI outputs of the generation kernel against the per-point path.

Each job runs twice in process: on the integer kernel, and with
``coordinates`` replaced in every lowdisc module by points assembled one at a
time from the per-point oracles (``radical_inverse`` per index and axis, the
row-at-a-time digital construction).  Both runs must exit alike and print the
same bytes, and those bytes must hash to what the per-point implementation
printed before the kernel replaced it.  The oracle path hands every caller
exact-int (object) arrays, so it also runs their beyond-int64 branches.
"""

import hashlib
import sys

import numpy as np
import pytest

from lowdisc import DigitalSequence, Halton, generators, radical_inverse
from lowdisc.cli import main
from oracles import oracle_digital_point

# job -> (exit code, SHA-256 of stdout) printed by the per-point implementation
GOLDEN = {
    "gen --spec vdc:2 --count 600":
        (0, "046a55d428e56da5b94e2100488e6ca82767068852a338b9303ead4ec6b4bcc5"),
    "gen --spec vdc:3 --count 50 --start 1000":
        (0, "a69619fb73c2898b8916926e552087cf7b558891ef88f8c097eedd0d70aa2827"),
    "gen --spec halton:2,3 --count 300 --start 7":
        (0, "e667a4a497381b6a91a9005afb59d636d3d47947643503eade64e6b201ed9c7b"),
    "gen --spec halton:5,7,3 --count 40 --start 4611686018427387890":
        (0, "e308160dda9713225adec069ed10789b7d116c260ce6d50e2ac2ffd707ba4657"),
    "gen --spec pascal:3,2 --count 300 --start 20":
        (0, "440345b98ab13228b8472889f4ec25263384c78302e6cc71808bbf731bc79934"),
    "gen --spec pascal:5,2 --count 60":
        (0, "7148c2c12aad673e50f36695567d250bb9cad35279f1e00c2ebf82d0eb5eb2df"),
    "gen --spec pascal:2,1,12 --count 100 --start 3990":
        (0, "224bd66852386c7a5fa3052a52e13e23007c6c17e784f97cb17487b4338f3c73"),
    "netcheck --spec vdc:2 --base 2 --mmax 4 --kmax 5":
        (0, "6a83e97752512e4e7871d8890d776a8589e5e4222f3b8fbbe13392f1b63acc76"),
    "netcheck --spec pascal:3,2 --base 3 --mmax 3 --kmax 4":
        (0, "27ab38bd43cf3ab0bc23c3df306b7aaf3f67bc51834e07af1e43a3b01de4c84d"),
    "netcheck --spec pascal:3,2,6 --base 3 --t 1 --mmax 3 --kmax 3":
        (0, "8f8d702139a75c30bc2f314eec2560d0dc7022c9eaff863b80d1555cb2ace425"),
    "netcheck --spec halton:2,3 --base 2 --mmax 2 --kmax 2":
        (1, "fc0a1b88ee8a8744f2b481413beefb49d35c1ac2a73d02c0ec419d124e66f4e9"),
    "netcheck --spec pascal:2,1,3 --base 2 --mmax 2 --kmax 3":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "udisc --spec vdc:2 --N 64 --kmax 256":
        (0, "bb6c71fab25494fc157fe872e2380784386399b309d52fd157cbfb51eb3c8c77"),
    "udisc --spec vdc:3 --N 20 --kmax 60 --mode star --transform sod:2":
        (0, "10e911796756b0e6c197b559e37647d889c5c900fd3659c65da869b5280f66fe"),
    "udisc --spec vdc:2 --N 32 --kmax 100 --transform pow:2/3":
        (0, "d3d3c2233bec1045618ebf92154df0cf2c97b7ab2dce6b83897d4e1e05220384"),
    "udisc --spec pascal:3,1,6 --N 27 --kmax 81 --transform sod:3":
        (0, "02f4d15a998d349c0712f775a881e989a620f81cd5cffe79259794340c74ce14"),
    "udisc --spec pascal:5,1 --N 25 --kmax 50":
        (0, "29e4e6a6b01d5ccffa6733d6b92d9f8a0ce52cc9c1ad9721a10eb4fb0b48c1f2"),
    "udisc --spec halton:2,3 --N 6 --kmax 12 --transform pow:1/2":
        (0, "09f20503982c7ff249f20f8336db9c1f874673e7b077a11c9bc51acb97b958b9"),
    "udisc --spec pascal:3,2 --N 6 --kmax 10 --mode star --transform sod:2":
        (0, "2cf6bdc8ee03684544db998bac93d3506bef612086517711349c6afb607668d2"),
    "ubound --spec vdc:2 --b 2 --dmax 6 --kmax 128":
        (0, "68dbbf9de79a55eedcd783cb8cce599df265a3fbe338d9327f319fab284d80ae"),
    "ubound --spec pascal:3,1,8 --b 3 --dmax 4 --kmax 81":
        (0, "9768867fbb7851b52bb8043bc2760b15ce6cb13081df923e3b8a3ff1bbe1366e"),
    "ubound --spec halton:2,3 --b 2 --s 2 --dmax 2 --kmax 6 --blocks 2":
        (0, "045c0993b8270ad479679ad652bc3e9f725d487d33e99663b281e44242d7c169"),
    "disc --spec vdc:2 --N 100":
        (0, "1ff25a276d72cc8b5137700cc182f1efa470857dabd11f65f08e9bd8e4c7adf0"),
    "disc --spec vdc:3 --N 4096 --transform pow:2/3":
        (0, "f73c273387162eb1164b28e158e174ffd003fc513a37d4550d6f27659e683ab0"),
    "disc --spec vdc:2 --N 65536 --transform sod:2 --mode star":
        (0, "68ecf5f87d5b54454c6520290f47350e1e9a8f547c71b29f4b7aee52767b17ba"),
    "disc --spec halton:2,3 --N 16":
        (0, "71c4981efd1449935f75cbf070ed7e51435d67aa98bb4eeb9b528531f00bcd6c"),
    "disc --spec halton:2,3 --N 4096 --transform sod:2":
        (0, "1a4fc0ee5c6bf34f0514f977a178a636fbbfc496d4936cbe936ead126858a543"),
    "disc --spec pascal:3,2 --N 27 --mode star":
        (0, "cae76719b64cc08d4fedcf96a4a2b257bae0852607980aeeb5a359a0cb1a5e90"),
    "disc --spec pascal:3,1,10 --N 1000 --transform pow:1/3":
        (0, "c291f1b16ab522322658cdc1ba742b5061b138b43bc346bc93ba61f2ff19e4e4"),
    "hkbound --b 2 --q 2 --N 100000":
        (0, "5aed4aabd75970d46fe0ede89abeb0b429fa7e5bee602b2765690a6240161e7e"),
    "hkbound --b 3 --q 2 --N 5000":
        (0, "1d0e327df2b363f6b51a68ef51eaeab42d47edf6af7878f16314ab85746d486a"),
    "hkbound --b 5 --q 3 --N 1000":
        (0, "3106cb60a474a490a1e4a9dd25deefb100096d8d6f805fd5fb8a28161affcf78"),
}


def oracle_coordinates(spec, indices):
    """The kernel's output assembled from per-point oracle coordinates."""
    indices = list(indices)
    for n in indices:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"expected a non-negative integer, got {n!r}")
    if isinstance(spec, DigitalSequence):
        mats = [m.rows for m in spec.matrices]
        rows = [oracle_digital_point(spec.p, mats, spec.precision, n) for n in indices]
        bases = [spec.p] * spec.dimension
    else:
        bases = spec.bases if isinstance(spec, Halton) else (spec.base,)
        rows = [[(x.num, x.prec) for x in (radical_inverse(n, b) for b in bases)] for n in indices]
    axes = []
    for a, base in enumerate(bases):
        width = max((row[a][1] for row in rows), default=0)
        nums = [row[a][0] * base ** (width - row[a][1]) for row in rows]
        axes.append(generators.Axis(base, width, np.array(nums, dtype=object)))
    return tuple(axes)


@pytest.fixture
def oracle_path(monkeypatch):
    kernel = generators.coordinates
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lowdisc" and getattr(module, "coordinates", None) is kernel:
            monkeypatch.setattr(module, "coordinates", oracle_coordinates)


def run(job, capsys):
    rc = main(job.split())
    return rc, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("job", list(GOLDEN))
def test_kernel_output_matches_per_point_path(job, capsys, request):
    got = run(job, capsys)
    assert got == GOLDEN[job]
    request.getfixturevalue("oracle_path")
    assert run(job, capsys) == got
