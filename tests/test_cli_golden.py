"""Byte-level pins on the command line output: one small job of each
sweep and verify kind, and the single L-function and Gauss sum jobs,
must print exactly the recorded canonical JSON."""

import hashlib

import pytest

from lpoly.cli import main


# sha256 of the canonical stdout of one small job of each sweep and verify
# kind, recorded before the twisted and power drivers shared one path
PINNED_OUTPUTS = [
    ("sweep twisted --p 7 --d 3 --e 2 --kappa 1",
     "0f234cc33d1c70392be9e14b20bba0fab7de94df858793b1e727e055af72d598"),
    ("sweep power --p 5 --d 2 --e 2",
     "44e03ac73d5c05ca5b0a399831bd5cd8dc2455dcf35cafbfd1d1be7b1b831d57"),
    ("verify prop31 --p 13 --d 2 --e 3 --kappa 1 --random 4",
     "43769ae61aeacec3a2a06fcc2874bd30657e07cbcf6f0a45805925fa7be2b3cc"),
    ("verify thm31 --p 13 --d 3 --e 2 --kappa 1 --random 4",
     "7ce4c288edfb3db98b26fdfcea819995e5fb8d7ceeb48576912bb5e6efb2c6b3"),
    ("verify prop42 --p 7 --d 3 --e 2 --random 3",
     "6ff111b7d4bfc70edb4f5675d0e980cd64b15af081a9f302523edcca3d4f59d0"),
    ("verify thm41 --p 13 --d 3 --e 2 --random 2",
     "2e8b97503eef6f74d94cd2976386593054bfdf91758a044f57f11107d29a0a93"),
    ("verify prop41 --p 5 --d 2 --e 2 --random 3",
     "81cd4c1ae5d66c689b2f7859f8552f931eeeac1ca03553fc8e309d244fffe57f"),
    ("verify lemma22 --draws 10 --seed 1",
     "e4287ab621afe9e1bb2a81e9a2ae50e9794e2029598646ac2718e1b1b8a9bf7c"),
    ("verify stickelberger",
     "53505cc8c92f37751779ee3efe5c0b99134d6cb1a9a3103dbbe6f0a516cf32e5"),
]

# the single-job commands that reach the valuation engine, including
# aligned places of residue degree 2; recorded before zeta_d was sent to
# the Teichmueller root instead of a Hensel-lifted factor
PINNED_OUTPUTS += [
    ("lfunction twisted --p 3 --d 2 --kappa 1 --e 1",
     "e1716d957c5ef37a194444dee32583253e618e75c730a587d631bf11885acdde"),
    ("lfunction twisted --p 7 --d 3 --kappa 2 --e 3 --coeffs 1,2",
     "c1c5294592ae40e64258d9c1abe8b7e942d08fcfc076fd2420cfcc8d94728452"),
    ("lfunction twisted --p 5 --m 2 --d 3 --kappa 1 --e 2 --coeffs 1",
     "aea67fd105c49658b8a89a10ebcb5549b60825078a6e5951ed63c397674e0087"),
    ("lfunction twisted --p 2 --m 2 --d 3 --kappa 1 --e 3 --coeffs 1,1",
     "e10e4e6a454f7a737ac6e4d4d04d8efd72707c3094f40f94cf2bab7afcea3a9b"),
    ("lfunction additive --p 5 --e 3 --coeffs 1,2",
     "f0a2a338579c7f8b78530c5c045cb21af86735b6c216aa43c8b60f027346f026"),
    ("lfunction power --p 7 --d 3 --e 2 --coeffs 1",
     "55dccdce3a6ce6872c0413873e0a6b3602df1349a613a7e1c2dca5a47e41a094"),
    ("gauss --p 5 --d 4 --kappa 1",
     "7b10f6769fc27866e15dced1ebf2c57c00b12795f125ccbfd7e7b8435a7dae46"),
    ("gauss --p 3 --m 2 --d 8 --kappa 3",
     "0f2c24c53dbb05bf374ff708f0740b6da130389f1f293563444a8e9713ef0546"),
]

# Hasse entries over F_25 and at p = 113, where the wanted coefficient of
# P^nu lies near its top degree; recorded while each entry was still read
# from a truncated product of nu copies of P, before the near end was used
PINNED_OUTPUTS += [
    ("sweep twisted --p 5 --m 2 --d 3 --e 2 --kappa 1 --random 4",
     "f1f327b49b8c5c168fe79dccbac8259acfb21016b2ae4af6d94a4edead6195a5"),
    ("verify prop31 --p 113 --d 2 --e 2 --kappa 1 --random 2",
     "fa53838d7e4785cf56a5ef7ce3b476a3a522e6d00d4e402be04c0528b511b29f"),
]

# sampled sweeps that draw the same tuple more than once ((3,) four times,
# (6,) and (3,) twice each); recorded while every draw was still computed
# on its own, before a repeated row was computed once
PINNED_OUTPUTS += [
    ("sweep twisted --p 5 --d 2 --e 2 --kappa 1 --random 8",
     "cf2cecef570203cf18b26184a5cdbf7f5ce2507432b846d1f985acd6db8af248"),
    ("sweep power --p 7 --d 3 --e 2 --random 6",
     "480eca7e47a4e0bda79d77639aea57550d04a335a1f180e2abb03e31a3941e97"),
]


# six places above 2 in Z[zeta_63] (each of residue degree 6), and a
# degree-20 power L-function; recorded while the working precision was the
# guess m D + 4, below what the norm bound picks for the Gauss sum
PINNED_OUTPUTS += [
    ("gauss --p 2 --m 6 --d 63 --kappa 5",
     "dd953f0465eb43ed515e781904b1f64dde52f2c63434a2ecab339479de15c46e"),
    ("lfunction power --p 2 --d 3 --e 7 --coeffs 1,1,0,1,1,1",
     "10a357999d251eb27def4510e448472f7dd494b5766181176e87503e4381be1d"),
]

# exhaustive sweeps whose rows fall into nontrivial symmetry classes of P:
# chi(lambda) != 1 with lambda^W = -1; Frobenius on the coefficients of
# F_25; lambda = 2 not a square in F_5; W odd in the full product over F_7.
# Recorded while every row was still computed on its own
PINNED_OUTPUTS += [
    ("sweep twisted --p 5 --d 4 --e 4 --kappa 1",
     "c11ebce59a23b2eb4595541dab6b19b193e4b197d77f08cfdcc76268f67557d5"),
    ("sweep twisted --p 5 --m 2 --d 3 --e 2 --kappa 1",
     "5714d7b491ab40fe19946eacebbbd06b842f261fd4c94ef1323b683925ac67a4"),
    ("sweep power --p 5 --d 2 --e 4",
     "85a1cd603872cedc4487c47b7419b374da0ae39953ee00981b657b3f56ea2259"),
    ("sweep power --p 7 --d 2 --e 2",
     "c3f3413496550af0cfc79f9a468b3b9628304fb85ad639aa723b3138bb9c86ea"),
]

# the in-regime e = 3 sweep over F_43, whose 1,849 rows fall into 46
# classes of mu_42 with c = lambda^-3 in F_43^*; rows off the generic
# polygon check the Hasse exponent W - e Y.  Recorded while a class still
# took only lambda with lambda^e = 1
PINNED_OUTPUTS += [
    ("sweep twisted --p 43 --d 3 --e 3 --kappa 1",
     "e2359b607ce8469f4487ac32e87235f6472234e04810716315054e96d94664da"),
]

# Hasse entries with p < e, where C(nu, k) mod p vanishes for some k < e
# (18 of the 27 values over F_3 are nonzero; four distinct values over
# F_4); recorded while each entry was still read from a truncated product
# of nu copies of P, before the closed form in t
PINNED_OUTPUTS += [
    ("sweep twisted --p 3 --d 2 --e 4 --kappa 1",
     "1245e3fdd1f81401eeb0fc289d265cd8df5cac63b4df804dce66b9e256416bcb"),
    ("sweep twisted --p 2 --m 2 --d 3 --e 5 --kappa 1",
     "74a34cc74c7472b7bafd27c6b551fdbb38f1c645184a57209ee1e69d22dfa120"),
]

# predicted polygons, in JSON and (global --csv before the subcommand) CSV;
# recorded while from_slopes merged its own vertices and hodge had its own
# constructor, before every polygon went through the one hull
PINNED_OUTPUTS += [
    ("polygon hodge --de 4",
     "376177d3cec715898029c6e32f34350cba16d589dcb973419f0c86e7d1fdf74f"),
    ("--csv polygon hodge --de 4",
     "d8a7991605aa2efc48048a2fdefb734c7cec4dfc268d2d7737709e91c5a95711"),
    ("polygon hs-twisted --d 2 --e 2 --r 1 --kappa 1",
     "248198b744d1483452bffe827401e4d362294ba981e7550b16d24f5c0e217a60"),
    ("polygon gnp-twisted --p 17 --d 3 --e 2 --kappa 1 --dump-tables",
     "18d2a5a2bfce7201e7eac0ab703d62914ac305a9063b31d7bc1b22e87aac8f79"),
    ("polygon hs-power --d 3 --e 2 --r 7",
     "10bc80b3c6b07d029a9246f809e74820cc8b2d2162e2048462347495cc66e2fb"),
    ("polygon gnp-power --p 13 --d 3 --e 2",
     "bb8dcd22272970e6d682976e0070d4395b547c8f07e03c515f2cac024042446a"),
]

# a valuation past every other pinned characteristic: the additive
# L-function over F_1031, in Z[zeta_1031]; recorded while each valuation
# still expanded zeta_p^a through binomial coefficients in pi = zeta_p - 1
PINNED_OUTPUTS += [
    ("lfunction additive --p 1031 --e 2 --coeffs 5",
     "50badb9d9d350ee43abb1fc14e6ce15d08e74c052ddedad7415ad3a148f02f2f"),
]

# a degree-9 sweep, whose block n = 9 lies past the cap of the permutation
# enumeration; recorded when each Hasse block value became a masked
# determinant (until then the job exited 3 after summing)
PINNED_OUTPUTS += [
    ("sweep twisted --p 5 --d 2 --e 9 --kappa 1 --random 3",
     "17a4757e866ae4e55d563ed184f33ffe45dc007f5e994e6f2b92ba61de7750e1"),
]

# digit tables over m = 4, twice the order of 17 mod 3; recorded while the
# carry digits were still derived one at a time from kappa_s and kappa_(s+1)
PINNED_OUTPUTS += [
    ("polygon gnp-twisted --p 17 --d 3 --e 2 --kappa 1 --m 4 --dump-tables",
     "242d7c4e9a2fbe522dbbdbbb19b21c56b2835c1850257c353045487a50539f8e"),
]

# the full lemma 2.2 check, whose masked permutation sets came from a
# method of the twist class; a twisted polygon where the hull of the points
# (n, Y_n) is not their sorted slopes (p < 2de); a power polygon with a
# class whose Y steps are [1, 0, 2, 1].  Recorded while each generic
# polygon built its own twist classes
PINNED_OUTPUTS += [
    ("verify lemma22 --draws 200",
     "decf1641595d54af162f9f67d0fac5ff62cf30a86984a6c6b914fec537c68143"),
    ("polygon gnp-twisted --p 5 --d 3 --e 7 --kappa 1 --dump-tables",
     "86d5f4dd16091e1af503976aad138650d8b31da666507e97ef43a9aea179a2bb"),
    ("polygon gnp-power --p 3 --d 2 --e 4",
     "2b217309842c6f40c8339b3f5e96aab55073d5a1a5dd8b5594aecded82a419de"),
]


# the in-regime e = 4 verdict over F_31: 29,791 of 29,791 rows pass, in
# classes of mu_30; recorded while each lambda was still raised to its
# powers one field power at a time
PINNED_OUTPUTS += [
    ("verify thm31 --p 31 --d 3 --e 4 --kappa 1",
     "9966c21a4d9690e8595a63e456796db683fb593a9c0eab2c0750eaa890520c7b"),
]

# orbit tables (a negative multiplier printed mod d, the one orbit of
# d = 1) and the Hodge-style polygons of a multiplier other than 1;
# recorded while one OrbitDecomposition object answered every orbit lookup
PINNED_OUTPUTS += [
    ("orbits --d 5 --t 2",
     "dbbf88b43b4648122dfb3cbad6e2416d7f62f9a9ae451e51e48c3964d78daf5f"),
    ("orbits --d 12 --t -7",
     "fbe04d8d19236c85b5bd9b645b282c4d2fd8b3efc84b305c094013f32f415ee9"),
    ("orbits --d 1 --t 0",
     "f66ef4b535e4029267cdf7b965e83656cf893e62c738e39c46b4c2b69aaddd25"),
    ("polygon hs-twisted --d 7 --e 3 --r 2 --kappa 3",
     "68bbb59a51a0873ad1484ca74e9296b01f00b4e21f8b143c6ae01ff41ac15c6a"),
    ("polygon hs-power --d 5 --e 3 --r 2",
     "43211d3504b4fafe8079b95db0a9de7e696e0e23e27233a4e0993fe3f243030a"),
]


@pytest.mark.parametrize("command,digest", PINNED_OUTPUTS)
def test_pinned_output_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
