"""Golden CLI outputs of the generation kernel against the per-point path.

Each job runs twice in process: on the integer kernel, and with
``coordinates`` replaced in every lowdisc module by points assembled one at a
time from the per-point oracles (``radical_inverse`` per index and axis, the
row-at-a-time digital construction).  Both runs must exit alike and print the
same bytes, and those bytes must hash to what the per-point implementation
printed before the kernel replaced it; the check, table and report jobs were
recorded before the CLI wrote its tables through one helper.  A job that exits
1 must also print its recorded failure record.  The oracle path hands every
caller exact-int (object) arrays, so it also runs their beyond-int64 branches.
Multisets small enough for the Python-int discrepancy take their points from
``int_coordinates``, which the oracle path leaves in place; test_generators
checks it against the same per-point oracles.
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
    # recorded with the kernel while a csv.writer wrote gen's rows one at a time
    "gen --spec pascal:5,2,4 --count 600":
        (0, "21abf33667fd4e490bf1deb9e54dddd35a8bd1e1daf97fc813a2f9225c988f08"),
    "gen --spec halton:2,3,5,7 --count 3000 --start 4095":
        (0, "9f7034107ce0d7381d380a1d0c5abe16e0298e13941dc3c77b76a4dc0b7b421b"),
    "gen --spec pascal:3,2,0 --count 1":
        (0, "fb777f845e77b77898cef9c79d0bb9244a812e8136db801fd7638a6966729fe1"),
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
    "ubound --spec halton:2,3 --b 2 --dmax 2 --kmax 6 --blocks 2":
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
    # recorded with the running-minimum grid scan: each exited 2 over the
    # 2^24-box budget of the box enumeration it replaced, which gave the same
    # value and witness on the levels d <= 24 and at N = 150 and 200 with that
    # budget lifted
    "disc --spec halton:2,3 --N 300":
        (0, "b81df35b68acf890807da5b71cec647c5ab7f95a4f9fe2430a13a6da9cc3f374"),
    # recorded while every 1D multiset went through the numpy arrays: the two
    # sides of the Python-int cut, a one-base Halton and a sweep job
    "disc --spec vdc:2 --N 16384":
        (0, "ccb1f4151bfb3a4b97cc05f27cc24e848acf1db95186d6279b58d622d34166bb"),
    "disc --spec vdc:2 --N 16385":
        (0, "d05ef0a202905564d5670b042f75de64745e927af23e479de7e87c8b7417f44a"),
    "disc --spec halton:3 --transform sod:2 --N 100000 --mode star":
        (0, "bb5e0f2a32dbf4b303a29308c143bfa0399014f06ca045ad7f0c45de8d84435d"),
    "disc --spec vdc:3 --transform pow:2/3 --N 1000000":
        (0, "714e716ae9956d156fa43885419291b8104294a317c96fbac2e2269a98f528e7"),
    # recorded with the per-level convolution, which took 5 s to count below this N
    f"disc --spec vdc:3 --transform sod:5 --N {5**256 - 1}":
        (0, "cfbbaf3bd10f9cf9a306833a98b666ef98205486b4402f8d1d40a48092b62053"),
    "hkbound --b 2 --q 2 --N 100000":
        (0, "5aed4aabd75970d46fe0ede89abeb0b429fa7e5bee602b2765690a6240161e7e"),
    "hkbound --b 3 --q 2 --N 5000":
        (0, "1d0e327df2b363f6b51a68ef51eaeab42d47edf6af7878f16314ab85746d486a"),
    "hkbound --b 5 --q 3 --N 1000":
        (0, "3106cb60a474a490a1e4a9dd25deefb100096d8d6f805fd5fb8a28161affcf78"),
    "genbound --spec vdc:2 --q 2 --dmax 8":
        (0, "7ac2a18a0e2349413a0086e3c628696081baa8cd21addc52a0b4f44d6afd9acb"),
    "genbound --spec halton:2,3 --q 3 --dmax 4":
        (0, "636b2aee14b6a32182744e8e96377d446d98c9e6954c488c070756405e4d3f55"),
    "genbound --spec pascal:3,1,8 --q 3 --dmax 4":
        (0, "54f029916f4ae1fbf969036b7ca1e9db4f305ac0a4394ab912662a88f70bb72d"),
    # recorded while general_upper still carried a generic block window
    "genbound --spec vdc:2 --q 2 --dmax 12":
        (0, "65915f5f96be77564dacc8c3e4ef01abf90c0e2cd73d14e8bb4c6e47d0108b6f"),
    "genbound --spec vdc:2 --q 3 --dmax 12":
        (0, "06280650507fd81ad51d2fa86a789f7535d3eec1136a26a2eba74ab29a042b04"),
    "genbound --spec vdc:2 --q 5 --dmax 12":
        (0, "c772b50cd32763b74e469ccde8e24fc32ddedfd395e5ac415e290897ff57bfd7"),
    "sodcheck --spec vdc:2 --q 2 --dmax 10":
        (0, "2b7a86d8f360e575eff96ef96784f8ed8c0d5f377ec1988f8c7d94f22b20397a"),
    "sodcheck --spec vdc:3 --q 3 --dmax 6 --cal 4":
        (0, "23a1895234dfb44346b532f588a12ce846bfc82d2843d0b39ec9882f217a681a"),
    "sodcheck --spec halton:2,3 --q 2 --dmax 8":
        (0, "37935bab9e2cf7c0efbbf1084e721d6e882bcd706ad92d0eedc9b27bb37de299"),
    # recorded with the running-minimum grid scan; over the box budget before
    "sodcheck --spec halton:2,3 --q 5 --dmax 30":
        (0, "11b9bbb13bfcbfb6bdedd300b418d8f29c0beb18b391aecda4375a4e172616e2"),
    "sodcheck --spec pascal:3,2 --q 5 --dmax 30":
        (0, "cfea5ba818f79fc41c0ce8cbda91a2bef0770f30ebde7b146cde367e1231c0dd"),
    "sodcheck --spec vdc:2 --q 2 --dmax 12 --mode star":
        (1, "ba024b6032ae2396d7566f76bfef768fe7abf43b0f910a2500450fb140c6abdb"),
    "monocheck --spec vdc:2 --u 1 --v 2 --dmax 8":
        (0, "c90aee4448ef33568ffe8c2e5b8a0d7581cf093a8b68b19db51cd02a664b8196"),
    "monocheck --spec vdc:3 --u 2 --v 3 --dmax 6 --mode star":
        (0, "13c2d6e4799a1c8197f92996213488033341db2aee3d787bc7ea1dfb540a93c1"),
    "monocheck --spec halton:2,3 --u 1 --v 3 --dmax 6 --cal-dmax 2":
        (0, "681318c68389c046f32e67329d373142ed092d2a14484a81de102112aac2b330"),
    "monocheck --spec vdc:2 --u 1 --v 2 --dmax 8 --cal-dmax 1":
        (1, "4ae1051c100653c8bbb8a7dd752e66fda11050ed131d34d489da3a7701998816"),
    "dist --q 3 --j 5":
        (0, "c40b2cc994b6558b814894fb5fca84ccf0d3a43c30d43fb5810ddc02f1469526"),
    "expsum --b 2 --q 3 --kmin 1 --kmax 15 --N 1000":
        (0, "5af6ada3d1ba4382273b9ccda98a5a54378b3a035e7b39e4ffdabcc83d6788f6"),
    "expsum --b 2 --q 2 --kmax 255 --N 16384":
        (0, "d18f349d76faddbc32a3c405d417631129e0652f8dfa514b59876e373d3ed685"),
    "transform --transform pow:2/3 --count 50 --start 10":
        (0, "65e964aba4d21190a6f602a89c90ab8837bab4a8e7c525bc338260224f195024"),
}

# job -> the one stderr line of a job that exits 1
FAILURE_RECORDS = {
    "netcheck --spec halton:2,3 --base 2 --mmax 2 --kmax 2":
        '{"command": "netcheck", "failures": [{"block": 0, "m": 1, "violation": '
        '"NetViolation(shape=(0, 1), cell=(0, 0), count=2, expected=1)"}]}\n',
    "sodcheck --spec vdc:2 --q 2 --dmax 12 --mode star":
        '{"command": "sodcheck", "failures": [{"check": "sodcheck", "d": 10}, '
        '{"check": "sodcheck", "d": 11}, {"check": "sodcheck", "d": 12}]}\n',
    "monocheck --spec vdc:2 --u 1 --v 2 --dmax 8 --cal-dmax 1":
        '{"command": "monocheck", "failures": [{"N": 4, "check": "monocheck"}, '
        '{"N": 8, "check": "monocheck"}]}\n',
}

# report config -> SHA-256 of each .dat file it writes (the manifest holds the
# output path, so it is not pinned)
REPORT_GOLDEN = {
    "curve=sod\nspec=vdc:2\nq=2\ndmax=10\n":
        {"sod_q2.dat": "777ba193154719b504e375649caecf8e3da20a81d7e6ba5e6fe843399b1d73b6"},
    "curve=sod\nspec=halton:2,3\nq=3\ndmax=4\nmode=star\n":
        {"sod_q3.dat": "ff8e55d7ea82a716bed4e367f21dde773b8a2a2f37dc25371709a62327dff58b"},
    "curve=alpha\nspec=vdc:3\nu=2\nv=3\ndmax=8\nmode=star\n":
        {"alpha_2_3.dat": "c2dff935f4d8b72dac53b412d4eacc83dbfc61bcf1e5e9dbb3ed78343041d1ff"},
    "curve=bound\nspec=vdc:2\nq=3\ndmax=5\n": {
        "bound_measured_q3.dat": "6805dc45c9a83cb0f61e16b9d172a0bf04046cb29afd4a3ca257b3346235e93c",
        "bound_upper_q3.dat": "3722a04ca56bf227d0d7b4365043a523403342cd5c3205dfa109ca051c082517",
    },
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
    out, err = capsys.readouterr()
    if rc != 2:  # usage errors are checked in test_cli
        assert err == FAILURE_RECORDS.get(job, "")
    return rc, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("job", list(GOLDEN))
def test_kernel_output_matches_per_point_path(job, capsys, request):
    got = run(job, capsys)
    assert got == GOLDEN[job]
    request.getfixturevalue("oracle_path")
    assert run(job, capsys) == got


def report_hashes(config, tmp_path):
    tmp_path.mkdir()
    (tmp_path / "cfg").write_text(config + f"out={tmp_path / 'rep'}\n")
    assert main(["report", "--config", str(tmp_path / "cfg")]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / "rep").glob("*.dat")}


@pytest.mark.parametrize("config", list(REPORT_GOLDEN))
def test_report_files_match_per_point_path(config, tmp_path, request):
    assert report_hashes(config, tmp_path / "kernel") == REPORT_GOLDEN[config]
    request.getfixturevalue("oracle_path")
    assert report_hashes(config, tmp_path / "oracle") == REPORT_GOLDEN[config]
