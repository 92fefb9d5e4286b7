"""Sweep and trace output bytes pinned by SHA-256 on named BLAS kernels.

tests/pinned_sweeps.py writes, through the CLI, sweeps of the six exact
scenarios and two Monte Carlo ones, on 1 and on 2 workers, and
self-consistent traces of both models on both engines, in a subprocess
with OPENBLAS_CORETYPE=Prescott, the oldest x86-64 kernel, which sums each
product in source order. Every file but the meta files must carry the
digest pinned here, the sweeps on both worker counts. A change that moves
any output bit fails: a seed, a format, or a summation order other than
source order. An einsum, which also sums in source order, keeps the
Prescott bits, so the exact runs are pinned a second time under
OPENBLAS_CORETYPE=Haswell, whose BLAS sums in blocks. A change that moves
bits on purpose re-pins the digests and says so with its bound.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pinned_sweeps

SRC = Path(__file__).resolve().parents[1] / "src"
# scipy-openblas reads the Prescott kernel back as Katmai, the name it reports
# for every core older than Nehalem (Prescott, Core2 and Penryn alike)
PRESCOTT_NAMES = ("Prescott", "Katmai")

PINNED = {
    "exact model1-plain": {
        "combined.csv": "ca287e05c4436336d3c5ec648eb4593c8a4350eb639e86b944079da7de1cb5f7",
        "female_violence.csv": "881f4300afd064ce3b7b4608bc0dbd9cc853d7dc062e01541ade4aafe3df9202",
        "female_violence.pgm": "b0e821a105592cac16ccebb4f00392947601472350d9622943fe3b7a75822482",
        "male_violence.csv": "e282e8c193b4baeb35418581fd51702a9eb7604af1c888348f88464000adacbf",
        "male_violence.pgm": "a85714b9397c9f8b36250c247ad1fc4026d1b4efeccedad3a004bb32998fb1f1",
        "normal.csv": "b0f3668d578308dc84ba62f2d70266ba204ea39021b198124eebf546c5b5e997",
        "normal.pgm": "b271402c90547b65203f598c06e7a1248527026d893004c2183d79ffca065634",
        "separation.csv": "b6b1fe8d9a2e36b9e58dbb06d530b50c15c3bf373bddba3bfcf3eed392326a34",
        "separation.pgm": "795a4cb4ddc2b310328b2f0ee051d308f9bd5a48e1e7dfdad30c57c1e7fd2e2f",
        "v1.csv": "7cae078e58f89485a5f091eaa93166f50e5dbb5d5ae222a1a8f0ddae3da1f6b6",
        "v1.pgm": "e4335c193d2ff0d809e5f749b50bd4b0211ee53da525b79afc0db40001bc6c2b",
        "v2.csv": "cc052fbc4a748121b8644e0e2e594662c751424c304553c2ec5674ebf86b9ece",
        "v2.pgm": "e18617bcd04344ad8743909b2ae53cb733f6dd69341049b59a5be187886e823d",
    },
    "exact model1-sc-blind": {
        "combined.csv": "db96bf44d69532703887c68360c6ef48ce41d29e5371f0994668e29a4f060575",
        "female_violence.csv": "80aad576022119242e0e8e33492670eb06862d9eeaedbd0d3bf29d4e727a6afc",
        "female_violence.pgm": "4879798b7845ed88f8897c5ced3e890e96dce36aee2381c82a2687d76ccb8a8b",
        "male_violence.csv": "7295f7748b7e6940fed724edf6578689cceedc83188bece10750f4079fc4cb95",
        "male_violence.pgm": "052fe85142d118c6be43b79367723a13e633873b8e2457255e05e0c773acbaa5",
        "normal.csv": "388bac59751643aff828fb37382e85137f0a64b4eb755a1d417832b47fc909e9",
        "normal.pgm": "35d1d33454a6ecc84b90cfc820577d2aab1402f55e4261bd01c066c0d195c946",
        "separation.csv": "d62345ea0f3eeaaf58743e6fcc83065f776a689f302cd3282407b357fa71808e",
        "separation.pgm": "175c32fb5e4a8f4f91b542f9526b9cd3248e8ac6ab922765d65700ea349fbc5d",
        "v1.csv": "18efa3add996848d8372b6fd8893bb38661f7a69809625b662e13db0f8933659",
        "v1.pgm": "db2d4fe4d0c797ea1a87a27f8aa7ced50f4b7697736fcb66c28fbdc7cba66b46",
        "v2.csv": "4f7aaa5c41437cd6e46d1697a84d3245119ccbe2bacc86ea12ac5e0532760c01",
        "v2.pgm": "a2ea88a9a50a3683a15b73b59e0eccce72fe35f7eb34e33a9e3c665ba722ff5c",
    },
    "exact model1-sc-gender": {
        "combined.csv": "fa4e714d16de31f06fdd081ea6746ae2be135e137704fd0475b95c1b769973b9",
        "female_violence.csv": "a2cadfc92233260004fedd2a603725dde12f6919474849b61883b30b44fa7952",
        "female_violence.pgm": "09fd5e407b16e96a707fc039878d19bc917bbcb3acd3160eef62ea0e2e44770c",
        "male_violence.csv": "9d565f958ffd814fb5c5b4d3d61a848b69e74634a1bc5eead83563bd96c5c114",
        "male_violence.pgm": "f8aed87ce17305f4a6739656c2dbf7800c8f3fe7584b2cac47e99d53f8bdddb6",
        "normal.csv": "dde20235377201975824744e8ece93c6c0d12b87669bd2b7a1cf2f36d08e442f",
        "normal.pgm": "ec4b2b31b9aaa8f235d85adcb17c3ae86e803028317d23746c3220b70c503b8e",
        "separation.csv": "4fc337fc7775562fb6c877dca323adafdd37dee0f61a9b7562abdeac7144ac53",
        "separation.pgm": "13f8bd4368955a7d7eb240d70c7b9b882226a5587c0371614ad2a45b95d46c39",
        "v1.csv": "33b88a5b65c98357b559133715951ae4eaef4cbb4b70f189572e1fe66ad49657",
        "v1.pgm": "c8343870f385f3727a9fcc58c76c9cd85875e57b48e786f1e0ef64f127951f43",
        "v2.csv": "68b843888cb3aba4755124e1c523762a18adc8fd4829c2f325a6567b367ec5db",
        "v2.pgm": "c8dfa2d4897fa5cfbc4ad3987777ee0df2f5ddf5727554bad04adf963d032965",
    },
    "exact model2-plain": {
        "combined.csv": "712296b51bd0f8b2cf640a0a4f84d0e22d70e2e54b0950b0c39ea7d627d220cc",
        "mutual_violence.csv": "cba43670f7f59a3706ac8f4cd8bc74cc6243fc5f698fd233f23a0f370ebfe375",
        "mutual_violence.pgm": "0c9d66c2bc9a3e9fa275a86e3d967feb2a79fbbe23921fd4048b61bd720e4152",
        "normal.csv": "929afb3b0053eecfba1a6f1f1c33dad5a1a6bdd2a47b82863d91fc83a65618a2",
        "normal.pgm": "5d9b523a091bd06e9852f35ea52dc53ad7276566bea758cbc43b8434d7437864",
        "recovering.csv": "8f920714413de05117271013e0d0bab25b00940056257968da49004784d8b528",
        "recovering.pgm": "f6d8f0e5276e03261988a40e5d23e2b81b35dc1eb8c2dd1b0dececd310ff7914",
        "separation.csv": "6224b6a92dd0c7f81476a02bc79039a44d813b1fba31050d58b374d7938b473a",
        "separation.pgm": "02984679e7ce1e5a2c8873e6c0230747b0f83bb5f256f97e10d5507cb3b015c0",
        "threshold.csv": "d32d9cff097eb8165c7fec5a7f9da2262774648fafaabec15de6095ed729d271",
        "threshold.pgm": "14c2d1cc5262952ecaceb89c0a34f5a0eac671f5de61f08f7f256ab8b523685d",
        "v1.csv": "7497d0b2b5ae453b65edd40fa83a7c21f69b6c417927f8e9a37c778ca044accb",
        "v1.pgm": "675b883e345eab0fd82eee44c1f1b3246941fae1e8a81383206f2769a718a27b",
        "v2.csv": "bd622ab282976944c8b82e785e85ea3aa4ffd7887fc66d06c6886bea6670d34f",
        "v2.pgm": "50051a0c1c97910aacf5c4aa5461568d4d82c23075f2d79c8097573fe39a91b5",
        "violence_cycle.csv": "a568d0b83dc2aad1ddd85c2713441a616d8fcd482ac8d0a85c81f510880917e5",
        "violence_cycle.pgm": "ba0b77cd0722b33cb27d10fe8046da9b153fe073b3d3fcaccc1fccee9d5a92a0",
    },
    "exact model2-sc-blind": {
        "combined.csv": "2a089abee13032949dda5d5e4eae72c26f25bb584ffe6cd0aef31a5db9d2de7f",
        "mutual_violence.csv": "5b55324dc18f3890433278848a01c1ef3d2c5fdce8e37f91252d19ad442cb5eb",
        "mutual_violence.pgm": "924e2b2e65a5cd3391a1da9f12585c6a5eef858669d43392d8618239e762fb03",
        "normal.csv": "3ce5012e471fc27fd0f3ce7ed51cf15c8e492cf06fdcc738c30543f92bf93392",
        "normal.pgm": "6bded26e163c7e2ff5bdd21969fff00f6d1dea54073c33829cbe93aa7f439e15",
        "recovering.csv": "89fb1e662caef91f38ffb29d9c0832d85da72bfd2ab14c1ff1645c5c37e12421",
        "recovering.pgm": "dd888d9157c7a1e972946940b0c77d455e1169a4fee2f1e45cf4646ea51f00d0",
        "separation.csv": "08e294d2e5f1486ab8541dbe9465e75ad16f3fa8ede8f1591e8beed750d418f0",
        "separation.pgm": "e6713c6afaf876288bb880dc2432d65ec842a66a29076c55463a3a9f1561f475",
        "threshold.csv": "c2bb5bf7fef1bc66388492b802c5b8af259fb61c42e909c5918b5bea633f7c38",
        "threshold.pgm": "0a0363881da7c8d11a01c648d80afbc76132f781557cdd433a142a56097ee4f1",
        "v1.csv": "594d062f06d75c31dac412c418df647a0d73fe9f54a1adf42e169cab3a7aac2b",
        "v1.pgm": "50b86c24bf7c03f8f3a55bf9815df2b58dc6dfa97790c93307658d6ea4a3bf47",
        "v2.csv": "4cd2b97683b49c4797c5969fd5240625944fdef24b35d69cd6801a57f7de825c",
        "v2.pgm": "50d980dfaba0bf04f71b1fb0e007952457b301a8f84bc6936ac698d8776009e9",
        "violence_cycle.csv": "2fc080fc0ef80724e568eda296de98a22f4a32a066f82fd792b6bc5c5844d11f",
        "violence_cycle.pgm": "81e462819b874ee667a2b967a264d066363463f85ea2cbdf02f85f5df8ee0148",
    },
    "exact model2-sc-gender": {
        "combined.csv": "997a66d0976fa38e851c2d32be28256821cbb3e22dffe1fcb77ddd07880acb63",
        "mutual_violence.csv": "3baab7fb561cf0c54f0b6e3cc733d58c11bd84d8dbefc8c06029d4dec330366a",
        "mutual_violence.pgm": "9bb1dec52f0485b13b4fd561d2fb7f2dd86ebe88265bf356eb34fca62a79403b",
        "normal.csv": "f64677ec2cbbbc03f3116dbf21f77b135dde5ab51cc641803338f9b277a06a30",
        "normal.pgm": "ee77ed5a5e9ad4da3e3f5fbeaf38d3ee480377b3c7074c14b9f05c2a2b41181c",
        "recovering.csv": "d3f7b2c30205b1654867c8d220cb9dd6d4435c208606579c7193cdbb95186d48",
        "recovering.pgm": "5445f143e748d39ff9ea5eaf6ebb2dee64c7707303d03594f0f8e2928409341c",
        "separation.csv": "712a9a608a60dc95531af89c65bef6bf4f0253d732fbd5bcfa98a61e434f8e85",
        "separation.pgm": "e6713c6afaf876288bb880dc2432d65ec842a66a29076c55463a3a9f1561f475",
        "threshold.csv": "29aa1b350dc3e70c90b8b17c3efd806275f8ceed124022c025860d18ba5f1379",
        "threshold.pgm": "d98a78a9705a8458d0b88d6f1eca6cf2a16cbe93675f910138afb9bf8ddbc0a4",
        "v1.csv": "f6c82952f7ca3a908542d8811abb9ecc3c9b05bb0c6fa04fc50bce2f668df7cb",
        "v1.pgm": "82d4bb58c69538212e278f8d01a2eff52c0850cc6490dccefc14dcd1eaef9d49",
        "v2.csv": "b375650555f7059e8ea99e2355cf60858773861a2a3e971aff555c5847eda716",
        "v2.pgm": "4b5c8da9d177b78b2b46deb6ff823e651080553bc0828e4e41ee107b4cc44bcf",
        "violence_cycle.csv": "f4c7febf41b43880d2e9496744aa953664a16814a2e81422d89d640ba390e2dd",
        "violence_cycle.pgm": "65bf8f4d62a64de1a75729f7a5666a7296380c54e97e5de14a98bccc3a228d6d",
    },
    "monte-carlo model1-sc-blind": {
        "combined.csv": "6d7f0d5601c91f33a167bfede387dff67fbb10588c9659166172340377d92791",
        "female_violence.csv": "04632061b97d90f2c3cbe8769fbb1cdf7d396646ae9570b5a8610bf4819708bf",
        "female_violence.pgm": "d1dc240bfc6d4d834885733b692300a1377316339c78e7ebdb9a3b748a8ddc3f",
        "male_violence.csv": "d4c060a5af71f6f52e2263484895be26fdafbb6a202b1534d6cf5f9972b31a3a",
        "male_violence.pgm": "6b553962ac19d546a0108085b4ee6cab058fff69fb2361e6d831a97e5ba5f174",
        "normal.csv": "4a5e4f30cfed5b9399a16d616016f169a8de2fd2cf499412f0f7a8cd53c3d68c",
        "normal.pgm": "cd985de2526d2588e3e5664e9d19aebb33c26a0d9e46cb805ea5517fa934093a",
        "separation.csv": "82c80ec830278eba322e367fe3741123df2d93844f1a59a0d621b4f9db17eb82",
        "separation.pgm": "5abf72161eecfc1de4b63638271961c6ddcb6aed0c16eddf38444de31150723c",
        "v1.csv": "373dce90dc3567e8cc03c0f5f331eedc12689db83931c9072e1889eb46d64abb",
        "v1.pgm": "1a79563b8c73478efd5e8ac69c91533408395270acd8f6c3f249d5795e9c1af0",
        "v2.csv": "12af939d1eb5e6b05ced4e5a22e17b65daacd7f024eef2fab595edf6f8fdcf87",
        "v2.pgm": "5b1225d06a53fc9cf27ef591f8fa1d1bcda39cf415485a61c39e38c9101a3250",
    },
    "monte-carlo model2-sc-gender": {
        "combined.csv": "0ea8042de9eaa140c5c4935179324a7db9bb4f74b3225873a576b587231f01e7",
        "mutual_violence.csv": "b7fb874eb5fba3ce5b5535e30538698bfe0013a9c177c6208611c176ae734334",
        "mutual_violence.pgm": "fe753c690ef9c15644418a4e92a48775c480e34e6940dc9877d3f7fa6f89e226",
        "normal.csv": "f1182072524a8450119aa2c5b5d7f87e3f0fc3a8729d2086537513b306ac90db",
        "normal.pgm": "fe48db256b70aa80516c1b42e1281a10140984beadd6416986b1fa1574e1c2fe",
        "recovering.csv": "a04793e7b9ab5e1d68443de6156e46fd7d511148352522c65c50b16fd8beaf23",
        "recovering.pgm": "b604c0991488b24915243e1c063e96d50bbc6b2167434af0bebd02ce067762eb",
        "separation.csv": "15acb04fbd4f48904250e56e387ad01d68071c40f605261512bfa5ffb9a9c5e0",
        "separation.pgm": "226b956336ca7ce27760b958e322e75e4c7d863561c963248cfcbbdeb9ba0818",
        "threshold.csv": "3b0fa3ff0a1f3fd6bf40dba59277c92337a0dac087ae240daf4fd11734363995",
        "threshold.pgm": "1d0099b69d86909ddd967bd289b280dc155b5f29d9b32505a88e9ec6ca02e39a",
        "v1.csv": "b7fb874eb5fba3ce5b5535e30538698bfe0013a9c177c6208611c176ae734334",
        "v1.pgm": "fe753c690ef9c15644418a4e92a48775c480e34e6940dc9877d3f7fa6f89e226",
        "v2.csv": "b7fb874eb5fba3ce5b5535e30538698bfe0013a9c177c6208611c176ae734334",
        "v2.pgm": "fe753c690ef9c15644418a4e92a48775c480e34e6940dc9877d3f7fa6f89e226",
        "violence_cycle.csv": "15acb04fbd4f48904250e56e387ad01d68071c40f605261512bfa5ffb9a9c5e0",
        "violence_cycle.pgm": "226b956336ca7ce27760b958e322e75e4c7d863561c963248cfcbbdeb9ba0818",
    },
    "exact selfconsistent model1": {
        "trace.csv": "a75ff26e1a5745988c6b5cc8a0a59a0014fd8ccfe572965e9ea3333d69929848",
    },
    "exact selfconsistent model2": {
        "trace.csv": "f1948c14441c6f5885b41ab7c8b815b991464cdc1da0347bac71ceb5f6defb33",
    },
    "monte-carlo selfconsistent model1": {
        "trace.csv": "846cdb438b195ce7405caaba4ecb4dd2e358287d8132ad9452533db7bc26fbe8",
    },
    "monte-carlo selfconsistent model2": {
        "trace.csv": "16f34b694364b6d2f8ada7a1ad34ee904f20c1f260069c941cc1a97b848fffe7",
    },
}

# The exact runs again under OPENBLAS_CORETYPE=Haswell, whose BLAS sums in its
# own blocked order: a change from BLAS to a source-order loop moves these.
PINNED_HASWELL = {
    "exact model1-plain": {
        "combined.csv": "21eeddb902f35611540ea8b0d024e6a22915f99ca5e67582e245100eb7d85fbd",
        "female_violence.csv": "881f4300afd064ce3b7b4608bc0dbd9cc853d7dc062e01541ade4aafe3df9202",
        "female_violence.pgm": "b0e821a105592cac16ccebb4f00392947601472350d9622943fe3b7a75822482",
        "male_violence.csv": "9cd4a62e9f4706f406db2b302d3083fa20b48225587d3c48abea80ca30f38ed9",
        "male_violence.pgm": "a85714b9397c9f8b36250c247ad1fc4026d1b4efeccedad3a004bb32998fb1f1",
        "normal.csv": "b0f3668d578308dc84ba62f2d70266ba204ea39021b198124eebf546c5b5e997",
        "normal.pgm": "b271402c90547b65203f598c06e7a1248527026d893004c2183d79ffca065634",
        "separation.csv": "872835230bb4286e818b947e8c9b71c2b87a78a6c46c6392eaa46190905a8df7",
        "separation.pgm": "795a4cb4ddc2b310328b2f0ee051d308f9bd5a48e1e7dfdad30c57c1e7fd2e2f",
        "v1.csv": "c3a72ea294594776588cf56efc9ea6c03911ba16f826738a7ab6b4c6560c61ff",
        "v1.pgm": "e4335c193d2ff0d809e5f749b50bd4b0211ee53da525b79afc0db40001bc6c2b",
        "v2.csv": "0537930506ed6bb0cc3b0c6d36dcf37fbfb1b2da1cad165772fd9ff7c21bd3ad",
        "v2.pgm": "e18617bcd04344ad8743909b2ae53cb733f6dd69341049b59a5be187886e823d",
    },
    "exact model1-sc-blind": {
        "combined.csv": "fb6dd0357c6662d01a05dce0961b3724a3287d645ab5a063c00049497347943b",
        "female_violence.csv": "80aad576022119242e0e8e33492670eb06862d9eeaedbd0d3bf29d4e727a6afc",
        "female_violence.pgm": "4879798b7845ed88f8897c5ced3e890e96dce36aee2381c82a2687d76ccb8a8b",
        "male_violence.csv": "7295f7748b7e6940fed724edf6578689cceedc83188bece10750f4079fc4cb95",
        "male_violence.pgm": "052fe85142d118c6be43b79367723a13e633873b8e2457255e05e0c773acbaa5",
        "normal.csv": "388bac59751643aff828fb37382e85137f0a64b4eb755a1d417832b47fc909e9",
        "normal.pgm": "35d1d33454a6ecc84b90cfc820577d2aab1402f55e4261bd01c066c0d195c946",
        "separation.csv": "10b509bb69d879656d7bb5dc85944a219de9b41bd2aab347a48c31267f88cf5c",
        "separation.pgm": "175c32fb5e4a8f4f91b542f9526b9cd3248e8ac6ab922765d65700ea349fbc5d",
        "v1.csv": "18efa3add996848d8372b6fd8893bb38661f7a69809625b662e13db0f8933659",
        "v1.pgm": "db2d4fe4d0c797ea1a87a27f8aa7ced50f4b7697736fcb66c28fbdc7cba66b46",
        "v2.csv": "4f7aaa5c41437cd6e46d1697a84d3245119ccbe2bacc86ea12ac5e0532760c01",
        "v2.pgm": "a2ea88a9a50a3683a15b73b59e0eccce72fe35f7eb34e33a9e3c665ba722ff5c",
    },
    "exact model1-sc-gender": {
        "combined.csv": "51ae00c66e0e0c4aaae0e5dea1069255c4ee666b6874b86b6ce3f1b54806ebaf",
        "female_violence.csv": "82a490571a5db03fa3a30032786527d8c808b108e0002d75487fdf54a576e007",
        "female_violence.pgm": "09fd5e407b16e96a707fc039878d19bc917bbcb3acd3160eef62ea0e2e44770c",
        "male_violence.csv": "c00d0be823e543758c7c8fb1efa34bca9e6dcd9c3e402d019b208ea0041dd335",
        "male_violence.pgm": "f8aed87ce17305f4a6739656c2dbf7800c8f3fe7584b2cac47e99d53f8bdddb6",
        "normal.csv": "dde20235377201975824744e8ece93c6c0d12b87669bd2b7a1cf2f36d08e442f",
        "normal.pgm": "ec4b2b31b9aaa8f235d85adcb17c3ae86e803028317d23746c3220b70c503b8e",
        "separation.csv": "1089fba0cd68b480184ad6dd01cc77c55c3b5b81a6669946c8209a3d43c76f73",
        "separation.pgm": "13f8bd4368955a7d7eb240d70c7b9b882226a5587c0371614ad2a45b95d46c39",
        "v1.csv": "0a55323526145a391a868c98c5fb677e4c70b55ba1d5a802bb3d49d63a9884eb",
        "v1.pgm": "c8343870f385f3727a9fcc58c76c9cd85875e57b48e786f1e0ef64f127951f43",
        "v2.csv": "f935c88336c1bc7966fc223b64f1cb880518f246ab557253a5448af25a2533f7",
        "v2.pgm": "c8dfa2d4897fa5cfbc4ad3987777ee0df2f5ddf5727554bad04adf963d032965",
    },
    "exact model2-plain": {
        "combined.csv": "591d89dac1cb41d890274144afecaf7259829a84adc60ed7399913147fba0920",
        "mutual_violence.csv": "59e59724c29076524ed6f04109bd8a5e68aeb33a74cb57557f4509bb271215a6",
        "mutual_violence.pgm": "0c9d66c2bc9a3e9fa275a86e3d967feb2a79fbbe23921fd4048b61bd720e4152",
        "normal.csv": "11b2ec56d3e178bee91d3cf42bc99e91e83aee415670331a4e1a30278f8793d9",
        "normal.pgm": "5d9b523a091bd06e9852f35ea52dc53ad7276566bea758cbc43b8434d7437864",
        "recovering.csv": "ccf7cf5779436b0817c31353d2acaf2b2bf12bda40b1d765658034c1e2075107",
        "recovering.pgm": "f6d8f0e5276e03261988a40e5d23e2b81b35dc1eb8c2dd1b0dececd310ff7914",
        "separation.csv": "2ff01064994c4bb285ca4120db5b1f3c308f8268a86a03d306369f2f4b8f7a08",
        "separation.pgm": "02984679e7ce1e5a2c8873e6c0230747b0f83bb5f256f97e10d5507cb3b015c0",
        "threshold.csv": "3ce917d7dcb13999146bd155336146a674c11ec3a3e63459cfb8fc76189ce29f",
        "threshold.pgm": "14c2d1cc5262952ecaceb89c0a34f5a0eac671f5de61f08f7f256ab8b523685d",
        "v1.csv": "6a601cfae0f62f001d0982923857d2e8c30c00659ec7ff9c52a952fd1ae76a3a",
        "v1.pgm": "675b883e345eab0fd82eee44c1f1b3246941fae1e8a81383206f2769a718a27b",
        "v2.csv": "61cd47c6b7d000f457e10736657c1d49556f84d335ae17e44d7c55d875f29d8e",
        "v2.pgm": "50051a0c1c97910aacf5c4aa5461568d4d82c23075f2d79c8097573fe39a91b5",
        "violence_cycle.csv": "f865053dc9de06c91a9bd46ad8bf8ab3d0d0a822e797fdc3391dc39dabf0d7f3",
        "violence_cycle.pgm": "ba0b77cd0722b33cb27d10fe8046da9b153fe073b3d3fcaccc1fccee9d5a92a0",
    },
    "exact model2-sc-blind": {
        "combined.csv": "9ee0f0580ec92822a03e06f8ee7d76255158f6778e9a902a888f590fef34c579",
        "mutual_violence.csv": "9a3f4eb314449eb925243b044015efc961dfe706a5e93cebeeed596a80b71730",
        "mutual_violence.pgm": "924e2b2e65a5cd3391a1da9f12585c6a5eef858669d43392d8618239e762fb03",
        "normal.csv": "dc6dc0bdd18baa8ba55d1c2bd0cbdecd030c4d85a24c4b67e6f16d85eee16a09",
        "normal.pgm": "6bded26e163c7e2ff5bdd21969fff00f6d1dea54073c33829cbe93aa7f439e15",
        "recovering.csv": "2c7a57e3eba1b0b9c6d2f926b2c512c344e7d9e030d2e78c14b6fe68ffa8d57a",
        "recovering.pgm": "dd888d9157c7a1e972946940b0c77d455e1169a4fee2f1e45cf4646ea51f00d0",
        "separation.csv": "6a00bd1e528bd194bfedfa4b59b5f4ccf0b40b7703c2a4fd941b5f6171d4f574",
        "separation.pgm": "e6713c6afaf876288bb880dc2432d65ec842a66a29076c55463a3a9f1561f475",
        "threshold.csv": "b132e07fe9b373864cd21a447fe3bfbd0800c6b9f12505f4c757e2b26d075140",
        "threshold.pgm": "0a0363881da7c8d11a01c648d80afbc76132f781557cdd433a142a56097ee4f1",
        "v1.csv": "73a8475a47a27dea6f184a79e05decc03cfc221c514afd7aaf4536ae5391ba34",
        "v1.pgm": "50b86c24bf7c03f8f3a55bf9815df2b58dc6dfa97790c93307658d6ea4a3bf47",
        "v2.csv": "a0694d07fa5e9f56d0cccf7ea3d974a27b7deffd6a0347330e25de257d23e468",
        "v2.pgm": "50d980dfaba0bf04f71b1fb0e007952457b301a8f84bc6936ac698d8776009e9",
        "violence_cycle.csv": "4ec4c39b1bdb12dc96102f3dfdbb47561e26ab7d5b93af9b3a9a77b7a52cd28e",
        "violence_cycle.pgm": "81e462819b874ee667a2b967a264d066363463f85ea2cbdf02f85f5df8ee0148",
    },
    "exact model2-sc-gender": {
        "combined.csv": "67f02097f5d08a1a81b6a8392d1009ce7b9af39bd34acc3340dc65870f8410de",
        "mutual_violence.csv": "5974961b48c63c1b414f651efc33996a1509efc13df97bf2c2179cd05d4f622e",
        "mutual_violence.pgm": "9bb1dec52f0485b13b4fd561d2fb7f2dd86ebe88265bf356eb34fca62a79403b",
        "normal.csv": "08eeda994fd39fe64712612cd43a648198e574553ba9338f288bae5d3ba19dc6",
        "normal.pgm": "ee77ed5a5e9ad4da3e3f5fbeaf38d3ee480377b3c7074c14b9f05c2a2b41181c",
        "recovering.csv": "f2075817893d02c4fdb17a9a6a034fdff8aea2a31f9a190e409ad5550e05f2e2",
        "recovering.pgm": "5445f143e748d39ff9ea5eaf6ebb2dee64c7707303d03594f0f8e2928409341c",
        "separation.csv": "1ec337c61a057e510be7771764bfef8098f6ec2fd07c45ffb2fcd2765c1be8a8",
        "separation.pgm": "e6713c6afaf876288bb880dc2432d65ec842a66a29076c55463a3a9f1561f475",
        "threshold.csv": "ca2311cfe4e76377f3423edd4454d5ba97bbaee4445653cb496996527045ea69",
        "threshold.pgm": "d98a78a9705a8458d0b88d6f1eca6cf2a16cbe93675f910138afb9bf8ddbc0a4",
        "v1.csv": "0b1164ecd8e3023e1f61df861aa8687eba659fbe2ae8dd59ae3b731d57fc80be",
        "v1.pgm": "82d4bb58c69538212e278f8d01a2eff52c0850cc6490dccefc14dcd1eaef9d49",
        "v2.csv": "33342d423e177dc8a22bfb3b10dec5167b993114198f65a5e4afcd54ed95ad7d",
        "v2.pgm": "4b5c8da9d177b78b2b46deb6ff823e651080553bc0828e4e41ee107b4cc44bcf",
        "violence_cycle.csv": "8eef38a20f0c0156c9b42c0796f1a7efcae7350b57d28208b0182e76a74d06fb",
        "violence_cycle.pgm": "65bf8f4d62a64de1a75729f7a5666a7296380c54e97e5de14a98bccc3a228d6d",
    },
    "exact selfconsistent model1": {
        "trace.csv": "f94b0287c2dc553057b3229c69d9b15481d2381a1adff6ff5faaa8289bd2b975",
    },
    "exact selfconsistent model2": {
        "trace.csv": "586250767e47f0ad7f366c0657f59dad2d0f5ab2746652c420c7cf8c507a9ea5",
    },
}


def _pinned_run(tmp_path_factory, core: str, *engines: str) -> dict:
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, pinned_sweeps.__file__, str(tmp_path_factory.mktemp(core)), *engines],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    return _pinned_run(tmp_path_factory, "Prescott")


@pytest.fixture(scope="module")
def haswell_run(tmp_path_factory):
    return _pinned_run(tmp_path_factory, "Haswell", "exact")


def _check(run: dict, pinned: dict, engine: str) -> None:
    for scenario in pinned_sweeps.SWEEPS[engine][0]:
        for workers in pinned_sweeps.WORKERS:
            got = run["digests"][f"{engine} {scenario} {workers}"]
            assert got == pinned[f"{engine} {scenario}"], f"{scenario} on {workers} workers"
    for model in pinned_sweeps.SELFCONSISTENT_MODELS:
        key = f"{engine} selfconsistent model{model}"
        assert run["digests"][key] == pinned[key], key


def test_monte_carlo_sweep_bytes_are_pinned(pinned_run):
    # the walk compares integers and uses no BLAS: these bits hold on any kernel
    _check(pinned_run, PINNED, "monte-carlo")


def test_exact_sweep_bytes_are_pinned_on_the_prescott_kernel(pinned_run):
    if pinned_run["core"] not in PRESCOTT_NAMES:
        pytest.skip(f"OPENBLAS_CORETYPE=Prescott left numpy's BLAS on {pinned_run['core']!r}, "
                    "so the exact bits are this host's kernel's, not the pinned ones")
    _check(pinned_run, PINNED, "exact")


def test_exact_sweep_bytes_are_pinned_on_the_haswell_kernel(haswell_run):
    if haswell_run["core"] != "Haswell":
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell left numpy's BLAS on {haswell_run['core']!r}, "
                    "so the exact bits are this host's kernel's, not the pinned ones")
    _check(haswell_run, PINNED_HASWELL, "exact")
