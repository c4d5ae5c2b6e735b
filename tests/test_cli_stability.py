"""Byte-stability of the `landau` and `qpoly` CLI output.

Each entry pins the exit code and the sha256 of stdout for one command, so
a refactor of the spec types or the q layer cannot change what a user sees;
the `verify` reports are pinned separately by test_golden_reports.py.
"""

import hashlib

import pytest

from factratio.cli import main
from factratio.qratio import FAMILIES

# (num, den, format) -> (exit code, sha256 of stdout)
LANDAU = {
    ("6,1", "3,2,2", "text"): (0, "ebd70bdb87c5a1fed13f31625c75d592f407a1b14d9d6c860248102deda6b4b0"),
    ("6,1", "3,2,2", "json"): (0, "7f629a4881135c9f6208abf137333cfa3294025e9c22857c73e34963033a1741"),
    ("15,2", "10,4,3", "text"): (0, "c66a026adec9561990814962e04289fd55bbdf1df62deb73f5f7b53397ac886f"),
    ("15,2", "10,4,3", "json"): (0, "c30b3d4b73d16129aa8f27757bb677aae805cc8122727e4e147f2b22b16024fd"),
    ("5,1", "3,3", "text"): (1, "1c0f030b93d01891672f79f089c55fe15a172ae4562c846f11e38a22cb3c77f6"),
    ("5,1", "3,3", "json"): (1, "dd0e6ccb80f35251eb30ebb3ecef96cb33c6e76e38c91bf7f41992833e565006"),
}

# (family, n, emit) -> sha256 of stdout; every family at n_min and at n = 3
QPOLY = {
    ("q-catalan", 1, "coeffs"): "74322552cacd92245103cb84d22d448f1fb9857c0ddd36825687f321ff152fa3",
    ("q-catalan", 1, "exponents"): "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    ("q-catalan", 1, "summary"): "66a9d7466e6d78ed4d5f9c21abbda981f35f36335741c9242d1efb43868f5b93",
    ("q-catalan", 3, "coeffs"): "9ad22d3cbe43731874c21881712696d10043b644c54b873628030abb9572674b",
    ("q-catalan", 3, "exponents"): "4320ffd148cf8012f08e5b2a707ecf8644941c5ecace09d2113b3bf33f7cec83",
    ("q-catalan", 3, "summary"): "f1b405432f3027f96efc9ba77db35bd7f205af7ec881f001b168016e9b94d149",
    ("thm-7.2-1", 1, "coeffs"): "9aab6bb835802621f991db7e78d3dab9b4b53ad852f2c53c8b15c0dc6f4220cd",
    ("thm-7.2-1", 1, "exponents"): "34808ea0e846b33da7632ae2ec996139d70a246d14bb8c895e935c22e5533f5f",
    ("thm-7.2-1", 1, "summary"): "166683554050d629b601ef6645eaa735a6b3519cd1750f37eac74f47acb983fb",
    ("thm-7.2-1", 3, "coeffs"): "1ed7a9dbc03456e26c6fc505734b8df8b9140c80fce20fdb5c14e19587ca7a2d",
    ("thm-7.2-1", 3, "exponents"): "530fa82b0cea39197b9010db1e7f9d6ecd33b43b71c24c4e623e192fbf28b836",
    ("thm-7.2-1", 3, "summary"): "e55c31b7a9be65f97bd232d827173c187fc6c7600e30994afd0c1abbd8756cef",
    ("thm-7.2-2", 1, "coeffs"): "4975ecce67dc8211f7e724724a1a57b2c76bb47555bda721075cf4ce68a00efb",
    ("thm-7.2-2", 1, "exponents"): "b31f461fa3a609d4fc05c0a78df98fb7be247a0885c212d86be7ffeaa9314aec",
    ("thm-7.2-2", 1, "summary"): "8d504547fe40f7113e2f75524e15cf774ddcc150412159e02ee15418bbbae75a",
    ("thm-7.2-2", 3, "coeffs"): "b6049b853c81fdf3cf9e5732c451c473e8fefc4c82a264e631ea380722634816",
    ("thm-7.2-2", 3, "exponents"): "ef16151a28ccdb9b8fd1e94687d50a82371ed52974fde99214d89a151cde9005",
    ("thm-7.2-2", 3, "summary"): "45b4c12b2d58b50e198f29733703e529245116797c013f8adeee31814723f8dc",
    ("thm-7.2-3", 1, "coeffs"): "bb49a2dae6126b7daa82e27d052f15cc2e4cae68a94e2f263c02e715d03c5267",
    ("thm-7.2-3", 1, "exponents"): "f80ffbeb892be8b4f43ac4e8e53fd6932441d390ba47fc0c14c4c0bed8eb7485",
    ("thm-7.2-3", 1, "summary"): "84fc80e24d9440af3d008fcf00e17fa0d0ea8592c295f1b055a3136b0e206ee9",
    ("thm-7.2-3", 3, "coeffs"): "f62ef5f5187b7b11d563ddc0ba95a9953e59a22beca285343a8a0978a9a8f18c",
    ("thm-7.2-3", 3, "exponents"): "45df99438902e4e5e750755b308bfd2ea083ad4ad1a7e4d7467dff66801cd509",
    ("thm-7.2-3", 3, "summary"): "5804d7aa2f47f2377f11406b0cd43e5d85b7bdb908cc4a21661a2b4702cab38a",
    ("thm-7.2-4", 2, "coeffs"): "fe5cbe4d8f69134c563b8d5756a48047ec1b8edc0b9039554d242c137fd84925",
    ("thm-7.2-4", 2, "exponents"): "163a32fb2f0e2b37e0e3f4b40db61ed1a4394f2c011a8b4cf10eadddf661879f",
    ("thm-7.2-4", 2, "summary"): "8473fec0aca5f2a74f64aff88f3b07140e975662c5d777a58b3e19b9a7d21e81",
    ("thm-7.2-4", 3, "coeffs"): "7deeef8ba07e0c51d283585e4b32c026514649a68272a771528c7ed1e3bb7848",
    ("thm-7.2-4", 3, "exponents"): "271184c293785459f87e2b0d5aae05e713222394d75a19f278bb7c2ffafe4257",
    ("thm-7.2-4", 3, "summary"): "82bd03e14748e1e34196af284606cc3fdd054419d1052cf8f28e8bc225e704a9",
    ("thm-7.2-5", 2, "coeffs"): "d870d2f46b5e5b7b7c0bc5341e13975b0b0329d5437cc10d99b8656724c4ec76",
    ("thm-7.2-5", 2, "exponents"): "d87ae2c5896039e799ac334a12dec2c178091ea27fcad2df933cff12a6db90bf",
    ("thm-7.2-5", 2, "summary"): "48f2a0919ee4a656a26ad347afc055a36725fde1758ba0d7a68c957208b3d513",
    ("thm-7.2-5", 3, "coeffs"): "7e36cc727f0977e969dc504f305b83014e8898acf498cfda50127283f3a1ff81",
    ("thm-7.2-5", 3, "exponents"): "83a342de609b2a2bb37978b6d0acf73446b2f72fb739991296104310a0aad522",
    ("thm-7.2-5", 3, "summary"): "22af3e89a506066393003f04f578db6cf6286771a763ef4b28b1dd945f45415f",
    ("thm-7.4-1", 1, "coeffs"): "41cde53dc6581130d1c8c795847b60aa2b73ebf35ee76961683174aa93e9f381",
    ("thm-7.4-1", 1, "exponents"): "53cf9ea40e9281070b58bb3b165afc4a096d4fde7de7b542bcdef659fc5063e4",
    ("thm-7.4-1", 1, "summary"): "b8c29fc256a71794944de1d724ec555afed184250fbe136816973d51d5ff45c0",
    ("thm-7.4-1", 3, "coeffs"): "bdcd35dd3fa9309a36fdb5584ed84d5edfa09da0523fabfb28daa537d5343f79",
    ("thm-7.4-1", 3, "exponents"): "d4dca8eed5060a5791b57f523c4555e34ff7a39a825aa3963d27f29f13a80f9b",
    ("thm-7.4-1", 3, "summary"): "f592468c054294aad7ca837d64f0261f549bae6663974c214d6b2ebebfbe6882",
    ("thm-7.4-2", 1, "coeffs"): "d2e9de300065a19733930dc59bee023223e9c9f837af2fcaed14770c00aba474",
    ("thm-7.4-2", 1, "exponents"): "21a0cb395942413566a83a3f714deef47ee404c2edf20d55f3f42c28019a7c57",
    ("thm-7.4-2", 1, "summary"): "4312a81dd8748fcea5d16e3336990e275ebba1d92f0d05ad0a2d40edaa438107",
    ("thm-7.4-2", 3, "coeffs"): "382bd6a4686708d082fce2739d4ddf666e10bd30c7294bc4f02830eebcced08a",
    ("thm-7.4-2", 3, "exponents"): "649b30bbfcbba4dd2eac5452b114ab5516c9db6a1b2916aaa390697ab0db4df8",
    ("thm-7.4-2", 3, "summary"): "18f4255da2cd54d0200644b7980b5be125d8e27c9045d5f58d17b76345ce8eef",
    ("wz", 1, "coeffs"): "9b284e3e579f64f2f0c7bb67be4850ea507798eb347056ba6e327c8278431bbe",
    ("wz", 1, "exponents"): "b100fbb9f87c3c08d294beb4198075a4ac631a9e248d03537c41530211d4f948",
    ("wz", 1, "summary"): "25d0eadb5d1934b27b45e422d25ca028ba63e073324ac41052332620c7051df7",
    ("wz", 3, "coeffs"): "12578d7909b4da9103afa3065630df74524c7c1079e317bf0a202416607bf866",
    ("wz", 3, "exponents"): "413fbd5ef263694abad361fc20f5358dd01f9b0d88bff21a75a7a7cb96f3fe39",
    ("wz", 3, "summary"): "c94b2bf2bc00859424b5c93e3d6c5a7bea0485c849e14255b6c9123f4fdea042",
    ("wz-15-2", 1, "coeffs"): "5293558ab6ea71341d40e48aef267e9b6bd602da3346df6a3739dd510463cdce",
    ("wz-15-2", 1, "exponents"): "9a86270709f60752db183632c59f701a9191a6d9a9ac1fac9cdfa62234564e64",
    ("wz-15-2", 1, "summary"): "75fcccaef130f93ac4de2ee86a494bba1a0c9f789b8e79a1045d8bcf492662ba",
    ("wz-15-2", 3, "coeffs"): "4dbe0b9090837f33897011fe99450eee21c74dae851f9cc9f6cad245018a1dc0",
    ("wz-15-2", 3, "exponents"): "4ef515782215d41e8d9b6e308c2f5416ecb84030a939d469068b3d7f2f9810d3",
    ("wz-15-2", 3, "summary"): "29090bd577a4ad5416edfacee01f560a9e1acfde98d8d08bd512c18cf60bee50",
}


def _digest(capsys, argv):
    code = main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("num, den, fmt", sorted(LANDAU))
def test_landau_output_is_byte_stable(capsys, num, den, fmt):
    argv = ["landau", "--num", num, "--den", den, "--format", fmt]
    assert _digest(capsys, argv) == LANDAU[num, den, fmt]


def test_qpoly_output_is_byte_stable(capsys):
    assert {(fid, n) for fid, n, _ in QPOLY} == {
        (fid, n) for fid, family in FAMILIES.items() for n in (family.n_min, 3)
    }
    for (fid, n, emit), digest in sorted(QPOLY.items()):
        argv = ["qpoly", "--family", fid, "--n", str(n), "--emit", emit]
        assert _digest(capsys, argv) == (0, digest), (fid, n, emit)


# thm-7.2-4 at n = 10 has a negative cyclotomic exponent (d = 9)
NOT_POLYNOMIAL = {
    "coeffs": "275901d6ef27b4bcd16ea539a12ad8b198c5dbcd527ac2b618cef5d0aa3f9af5",
    "exponents": "f151db5b8be340d4c31c4cf6fec896b3dd4f3c04c9d95eb5302cbf04e013d8f1",
    "summary": "275901d6ef27b4bcd16ea539a12ad8b198c5dbcd527ac2b618cef5d0aa3f9af5",
}


@pytest.mark.parametrize("emit", sorted(NOT_POLYNOMIAL))
def test_qpoly_exits_1_at_a_non_polynomial_point(capsys, emit):
    argv = ["qpoly", "--family", "thm-7.2-4", "--n", "10", "--emit", emit]
    assert _digest(capsys, argv) == (1, NOT_POLYNOMIAL[emit])


@pytest.mark.parametrize("num, den", [("6,0", "3,3"), ("6,1", "3,2")])
def test_landau_rejects_bad_shapes_with_usage_error(capsys, num, den):
    assert main(["landau", "--num", num, "--den", den]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
