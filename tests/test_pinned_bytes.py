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
        "combined.csv": "83f2baa18916bf4f5883fe6894165a2341a64967087bf40575c06e700fff33bf",
        "female_violence.csv": "cdf227834493cd112e2fcfdbed1ff1bdf5d3239772961bd21407bfe344ec8166",
        "female_violence.pgm": "b0e821a105592cac16ccebb4f00392947601472350d9622943fe3b7a75822482",
        "male_violence.csv": "e023524a72acdd90e857f12972928a680901ac3594fb089f71c934c3edc9837a",
        "male_violence.pgm": "a85714b9397c9f8b36250c247ad1fc4026d1b4efeccedad3a004bb32998fb1f1",
        "normal.csv": "db4d27e90155e4b42ecf4728fa95cc18ed16ec74dfc274580f78a978189f96ca",
        "normal.pgm": "b271402c90547b65203f598c06e7a1248527026d893004c2183d79ffca065634",
        "separation.csv": "e3f149ead68382d9724afebf308fdbce0035da202d59847533840c5093d94763",
        "separation.pgm": "795a4cb4ddc2b310328b2f0ee051d308f9bd5a48e1e7dfdad30c57c1e7fd2e2f",
        "v1.csv": "c2a19231835caf10c9ba218bc26e9479ec116420393839964d6c40a07f0b6bb1",
        "v1.pgm": "e4335c193d2ff0d809e5f749b50bd4b0211ee53da525b79afc0db40001bc6c2b",
        "v2.csv": "9b69780509784e8f6ec4c8f76ef0a18ed074dbf429c19e796ff84a93e23a8807",
        "v2.pgm": "e18617bcd04344ad8743909b2ae53cb733f6dd69341049b59a5be187886e823d",
    },
    "exact model1-sc-blind": {
        "combined.csv": "0752df031f2916ee04ae5bd7756985c5caed344cfef45ca67f74365df0e3fc17",
        "female_violence.csv": "59719742f904c9909fade632261aab633c3002186a4a79bd000b1750ed7de2f7",
        "female_violence.pgm": "4879798b7845ed88f8897c5ced3e890e96dce36aee2381c82a2687d76ccb8a8b",
        "male_violence.csv": "a19f28f32b0298386cac9242768fa75f90f3947d0f8c50cd36e371fc88ecaee7",
        "male_violence.pgm": "052fe85142d118c6be43b79367723a13e633873b8e2457255e05e0c773acbaa5",
        "normal.csv": "e78768decc3bf014f1a9bb8bc9013ef3f5dda87431ed2bdde0e4260ee0207df3",
        "normal.pgm": "35d1d33454a6ecc84b90cfc820577d2aab1402f55e4261bd01c066c0d195c946",
        "separation.csv": "16f5a1cc0be971aedc3a59a48d32c6f38ab38118eebc9eccb755f4fc78ac6db4",
        "separation.pgm": "175c32fb5e4a8f4f91b542f9526b9cd3248e8ac6ab922765d65700ea349fbc5d",
        "v1.csv": "cccacaac366824bc81a5e82ac81902cd70947d6feb77560cfb3c776ba5ed8e1a",
        "v1.pgm": "db2d4fe4d0c797ea1a87a27f8aa7ced50f4b7697736fcb66c28fbdc7cba66b46",
        "v2.csv": "cd73695c56850e71a6b212f9421e00e4c820730d33e32b1b45c770f4ae1b5ad2",
        "v2.pgm": "a2ea88a9a50a3683a15b73b59e0eccce72fe35f7eb34e33a9e3c665ba722ff5c",
    },
    "exact model1-sc-gender": {
        "combined.csv": "781654b36bc0d4e60b74addf11233b4de6af5f49a7ba0c9a8e9bbc15890e0c1c",
        "female_violence.csv": "dc0a909a29ac1e57c918c39002d242811fab5d9f5e1bce179db8ef9da1bc1aba",
        "female_violence.pgm": "09fd5e407b16e96a707fc039878d19bc917bbcb3acd3160eef62ea0e2e44770c",
        "male_violence.csv": "b1d10029ca4f6e9c82ddf3c5a34361381a95de8c2da393088866a424b6f37e61",
        "male_violence.pgm": "f8aed87ce17305f4a6739656c2dbf7800c8f3fe7584b2cac47e99d53f8bdddb6",
        "normal.csv": "c2623d63cb1db91679130408a8cd55f1a2e66d3fbae50f3e91682bdbf53afd13",
        "normal.pgm": "ec4b2b31b9aaa8f235d85adcb17c3ae86e803028317d23746c3220b70c503b8e",
        "separation.csv": "3589bf3b7b1bb37e3b93a019b807c63b3467d9db05db23b143fc7b56a74a6802",
        "separation.pgm": "13f8bd4368955a7d7eb240d70c7b9b882226a5587c0371614ad2a45b95d46c39",
        "v1.csv": "37a378a2dfb5f77b6c8c56a0947233c5a4c3a430c0252e8a7b73c7576cc051a7",
        "v1.pgm": "c8343870f385f3727a9fcc58c76c9cd85875e57b48e786f1e0ef64f127951f43",
        "v2.csv": "64bc9b7ecc3bdd817d65b4a72d61a4d3e1a5c46b5e8655ebe572930f91b91fdd",
        "v2.pgm": "c8dfa2d4897fa5cfbc4ad3987777ee0df2f5ddf5727554bad04adf963d032965",
    },
    "exact model2-plain": {
        "combined.csv": "8e8143d5782e441243e37059fa0d98d6a8ed3eb9e7c9c504dec08362b3259193",
        "mutual_violence.csv": "a0612573c2489f463309a682bfd047a4e20bb485c622f7f24d13bbfc58ae8f02",
        "mutual_violence.pgm": "0c9d66c2bc9a3e9fa275a86e3d967feb2a79fbbe23921fd4048b61bd720e4152",
        "normal.csv": "7c9b9f66cdd15c059b058941ae9bd7554969f3ee6198fe3c2dbed310e5b9dd97",
        "normal.pgm": "5d9b523a091bd06e9852f35ea52dc53ad7276566bea758cbc43b8434d7437864",
        "recovering.csv": "f6ee1edeff9488dc941662b36601e0ea57fe00f5fc8ed63da5635223a9c84358",
        "recovering.pgm": "f6d8f0e5276e03261988a40e5d23e2b81b35dc1eb8c2dd1b0dececd310ff7914",
        "separation.csv": "a4a790d8e08c49b80de45af4f30d6659c738542d1626bbae84c31e7a8621a02f",
        "separation.pgm": "02984679e7ce1e5a2c8873e6c0230747b0f83bb5f256f97e10d5507cb3b015c0",
        "threshold.csv": "38570a3f00de19dbb5fb307421ee1f870e1b2a487d02e29d55127ed7c3de0dc1",
        "threshold.pgm": "14c2d1cc5262952ecaceb89c0a34f5a0eac671f5de61f08f7f256ab8b523685d",
        "v1.csv": "bcc919b9ea66c1e88ea906bedc2b2f23c861e9ce61094de388713d2de3cf31c2",
        "v1.pgm": "675b883e345eab0fd82eee44c1f1b3246941fae1e8a81383206f2769a718a27b",
        "v2.csv": "2c03a81614937bbc6d8a29c6cfe2f9febd8b4c28ac3d49e3ecd66b27a33281ef",
        "v2.pgm": "50051a0c1c97910aacf5c4aa5461568d4d82c23075f2d79c8097573fe39a91b5",
        "violence_cycle.csv": "8c31c15b4d6cb6b72e3fed79ad7401ac5ccaec67f8d407edb4a32dfc0911a452",
        "violence_cycle.pgm": "ba0b77cd0722b33cb27d10fe8046da9b153fe073b3d3fcaccc1fccee9d5a92a0",
    },
    "exact model2-sc-blind": {
        "combined.csv": "2393def87bba96c0068f581450e70fb71d15f8a2b7039e6df961f0a97f29d795",
        "mutual_violence.csv": "34d2ddb69978d82121eb5e511d1e02c16c7900708b8f81aa6e6b63b5813b5be2",
        "mutual_violence.pgm": "924e2b2e65a5cd3391a1da9f12585c6a5eef858669d43392d8618239e762fb03",
        "normal.csv": "0a6efe273beaa0a9a32bd160fbefc0b8cba8638b3267dda3b35962bb3a4e85cc",
        "normal.pgm": "6bded26e163c7e2ff5bdd21969fff00f6d1dea54073c33829cbe93aa7f439e15",
        "recovering.csv": "77d1580dedd16da13045de9aad0315c7270fac260abc414d5d0e0f1616f01749",
        "recovering.pgm": "dd888d9157c7a1e972946940b0c77d455e1169a4fee2f1e45cf4646ea51f00d0",
        "separation.csv": "1d918754292321d0271ec4ae454fdc9b9f1c0705cc5ef790b7bf5159eed46456",
        "separation.pgm": "e6713c6afaf876288bb880dc2432d65ec842a66a29076c55463a3a9f1561f475",
        "threshold.csv": "3bd8bf8e69871a98948a15950fd918c5c722655e903573cff0b5cf53c1b9107e",
        "threshold.pgm": "0a0363881da7c8d11a01c648d80afbc76132f781557cdd433a142a56097ee4f1",
        "v1.csv": "a196d65ce7e4da8c6158f52d6159247cf80aded31b313a02cfe99a67a1c72d6e",
        "v1.pgm": "50b86c24bf7c03f8f3a55bf9815df2b58dc6dfa97790c93307658d6ea4a3bf47",
        "v2.csv": "71f6bd3a1e42987d6237aa3f8dc2c474a4f7450e0b1a2028161dee7849918fee",
        "v2.pgm": "50d980dfaba0bf04f71b1fb0e007952457b301a8f84bc6936ac698d8776009e9",
        "violence_cycle.csv": "936bdb30cc5e9937171261211daefc9983bae753cf0ab5910b6125938135cccc",
        "violence_cycle.pgm": "81e462819b874ee667a2b967a264d066363463f85ea2cbdf02f85f5df8ee0148",
    },
    "exact model2-sc-gender": {
        "combined.csv": "2707325653973be47e825ed4c647d19317252e8c31de93dc00a5616a80ae0794",
        "mutual_violence.csv": "a3f14973207c3db414b3ef93b7658056640679469792cf00e4d5c17cb8ce1b1e",
        "mutual_violence.pgm": "9bb1dec52f0485b13b4fd561d2fb7f2dd86ebe88265bf356eb34fca62a79403b",
        "normal.csv": "45be861923dcd9243bba46d442dbec71a5abaf045ff9996125c65b3656bb9f66",
        "normal.pgm": "ee77ed5a5e9ad4da3e3f5fbeaf38d3ee480377b3c7074c14b9f05c2a2b41181c",
        "recovering.csv": "65cd72245bdbd2ec601e60bd5a5155d9599f9ef6a299f95b4b1e9a509950a402",
        "recovering.pgm": "5445f143e748d39ff9ea5eaf6ebb2dee64c7707303d03594f0f8e2928409341c",
        "separation.csv": "9ac4ffc92bdabb18b0c0ab9fda549d77e8708b3f3f254fc2f71577de2e0507fd",
        "separation.pgm": "e6713c6afaf876288bb880dc2432d65ec842a66a29076c55463a3a9f1561f475",
        "threshold.csv": "7981bc71142eeae77e4ce7301ddb841576b22451e7fadd33a757967b5424f0db",
        "threshold.pgm": "d98a78a9705a8458d0b88d6f1eca6cf2a16cbe93675f910138afb9bf8ddbc0a4",
        "v1.csv": "cdc061cad7617d7709ad601578bda18361c1902b8de22621c59ea02229953a81",
        "v1.pgm": "82d4bb58c69538212e278f8d01a2eff52c0850cc6490dccefc14dcd1eaef9d49",
        "v2.csv": "1fb983d567866dbce99838fdfa7d237af2e936a873aa3af58223e46e956a4ad8",
        "v2.pgm": "4b5c8da9d177b78b2b46deb6ff823e651080553bc0828e4e41ee107b4cc44bcf",
        "violence_cycle.csv": "41de4a3b9174acd1cbdb4494383c88aa534f3c01770a77cde817a4d64fd9945f",
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
        "trace.csv": "3a2777160ae61023875a720f12f9b51e5ab923edf3cb621f1946a9d514e61d7c",
    },
    "exact selfconsistent model2": {
        "trace.csv": "3ea8f9ac4bf25d67e980ad38aeb9ce5c5098fa83d6858874fad2ba880a116f69",
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
        "combined.csv": "05ba01e5db3a17a70962dcb1d5a10d5968f6014e4d1c7d048d51a958b35d2c8f",
        "female_violence.csv": "e8dab27635d2396fde3dc4c9741d428ea00c3ef0b70e8d6ef73c2916b5389d52",
        "female_violence.pgm": "b0e821a105592cac16ccebb4f00392947601472350d9622943fe3b7a75822482",
        "male_violence.csv": "2c7fa0028c43b6d44343f0bdd312070f3baf38d06122fb91c9cdda6030afc935",
        "male_violence.pgm": "a85714b9397c9f8b36250c247ad1fc4026d1b4efeccedad3a004bb32998fb1f1",
        "normal.csv": "2eceb5340973ba8f67cb5cea9fc8c141aa162ae3420ef53d12e191007b88f4e6",
        "normal.pgm": "b271402c90547b65203f598c06e7a1248527026d893004c2183d79ffca065634",
        "separation.csv": "0dc2b18174ce47ed7c1d13cdda42a02f5367985b37303d03cc5190b666067915",
        "separation.pgm": "795a4cb4ddc2b310328b2f0ee051d308f9bd5a48e1e7dfdad30c57c1e7fd2e2f",
        "v1.csv": "f2a0c4aab0af19d479fefdd7c64f1101e4ac8e8a376d35dbb036c14ea5173674",
        "v1.pgm": "e4335c193d2ff0d809e5f749b50bd4b0211ee53da525b79afc0db40001bc6c2b",
        "v2.csv": "0cdea88b21b8cc9797296581bf57629b53c3e04bb2eafa4033caee9e26930a13",
        "v2.pgm": "e18617bcd04344ad8743909b2ae53cb733f6dd69341049b59a5be187886e823d",
    },
    "exact model1-sc-blind": {
        "combined.csv": "2cf047c5583dd8616e7c3d42aa8c1cdf0c84d2305b3d3eb5c6f5f02daab7028b",
        "female_violence.csv": "2e8bc1492a81535e40b5d72087f54192e838dd11ffff0cd27504d5dff2557d2c",
        "female_violence.pgm": "4879798b7845ed88f8897c5ced3e890e96dce36aee2381c82a2687d76ccb8a8b",
        "male_violence.csv": "e69e1e8ee3523a19fd43c9f2d8f5ab52969dacdd78e0eb5bd5e025a24e6b1eaf",
        "male_violence.pgm": "052fe85142d118c6be43b79367723a13e633873b8e2457255e05e0c773acbaa5",
        "normal.csv": "e78768decc3bf014f1a9bb8bc9013ef3f5dda87431ed2bdde0e4260ee0207df3",
        "normal.pgm": "35d1d33454a6ecc84b90cfc820577d2aab1402f55e4261bd01c066c0d195c946",
        "separation.csv": "16f5a1cc0be971aedc3a59a48d32c6f38ab38118eebc9eccb755f4fc78ac6db4",
        "separation.pgm": "175c32fb5e4a8f4f91b542f9526b9cd3248e8ac6ab922765d65700ea349fbc5d",
        "v1.csv": "8a3bb243b11347cbf38fb7cac664fcfe9dff19a34a201e9ca32110ee0cdb5905",
        "v1.pgm": "db2d4fe4d0c797ea1a87a27f8aa7ced50f4b7697736fcb66c28fbdc7cba66b46",
        "v2.csv": "260c66c65347c739608e1bf78082932336a2938193a62d3aa81de0628348dc53",
        "v2.pgm": "a2ea88a9a50a3683a15b73b59e0eccce72fe35f7eb34e33a9e3c665ba722ff5c",
    },
    "exact model1-sc-gender": {
        "combined.csv": "398010093b73725c217210fd8f5f2257b93ba66969777f282a17eb01e3a8b27d",
        "female_violence.csv": "b09f2dfdd5ce7b2addd5fa13711231ed421446910b059f4fc503f7bbda975758",
        "female_violence.pgm": "09fd5e407b16e96a707fc039878d19bc917bbcb3acd3160eef62ea0e2e44770c",
        "male_violence.csv": "fead913f52075dd1d77a2548793fa146d2cf9550b05fa8449f0dd018deb2d3c2",
        "male_violence.pgm": "f8aed87ce17305f4a6739656c2dbf7800c8f3fe7584b2cac47e99d53f8bdddb6",
        "normal.csv": "580d6e7303ddfe0e6599f5e1a8d494ade93ae6ebf7fc60c9dd2c02458ad31452",
        "normal.pgm": "ec4b2b31b9aaa8f235d85adcb17c3ae86e803028317d23746c3220b70c503b8e",
        "separation.csv": "c10ac22dd0063059fdedca1cbd92bcc9338768b6edefbe8cf02c1bacf0a24a60",
        "separation.pgm": "13f8bd4368955a7d7eb240d70c7b9b882226a5587c0371614ad2a45b95d46c39",
        "v1.csv": "4b8a325f6a6d376ebef5537204bc9cb1032016d4d5871d1b173391a4cb8f8fcc",
        "v1.pgm": "c8343870f385f3727a9fcc58c76c9cd85875e57b48e786f1e0ef64f127951f43",
        "v2.csv": "b63960b00aba16c9e1c95c0abbdc1b5eb20f635b017766065c1faa694869adad",
        "v2.pgm": "c8dfa2d4897fa5cfbc4ad3987777ee0df2f5ddf5727554bad04adf963d032965",
    },
    "exact model2-plain": {
        "combined.csv": "4672c0a8bb4806d37d720969514554f3337d8dc2957270e24743f30015dc6886",
        "mutual_violence.csv": "644f4364514f308b30da2bfe2e439f4f09907e9c27c23b5ed3cc74df5cfae34b",
        "mutual_violence.pgm": "0c9d66c2bc9a3e9fa275a86e3d967feb2a79fbbe23921fd4048b61bd720e4152",
        "normal.csv": "2d44a632025cdeff7a7ba3a8368daddb35e3ef0fece090a0ca3f8721d2f94660",
        "normal.pgm": "5d9b523a091bd06e9852f35ea52dc53ad7276566bea758cbc43b8434d7437864",
        "recovering.csv": "710efe07a2015ae903438d1d8f48f15bc0232404fb91d6694d404e672555d80f",
        "recovering.pgm": "f6d8f0e5276e03261988a40e5d23e2b81b35dc1eb8c2dd1b0dececd310ff7914",
        "separation.csv": "3f55e9ad12a72c25d229e20e4fa5dc0e13f98d9eaa37c7ef804b4f3a73081c8b",
        "separation.pgm": "02984679e7ce1e5a2c8873e6c0230747b0f83bb5f256f97e10d5507cb3b015c0",
        "threshold.csv": "9c16bf09b9634a3f16d23d7c1b75811cb86646203e244a606d3f9da72e4d4c3c",
        "threshold.pgm": "14c2d1cc5262952ecaceb89c0a34f5a0eac671f5de61f08f7f256ab8b523685d",
        "v1.csv": "09f1fde2e7106f5047dbd077316c56d1465451d0e1e670e7f5a5ca4195a9ea9e",
        "v1.pgm": "675b883e345eab0fd82eee44c1f1b3246941fae1e8a81383206f2769a718a27b",
        "v2.csv": "38b430cf9d20352f994d7621e0ed33f7fa034057b86d0eaa7440627d02cfa6b7",
        "v2.pgm": "50051a0c1c97910aacf5c4aa5461568d4d82c23075f2d79c8097573fe39a91b5",
        "violence_cycle.csv": "21cdbf034499fdc7b552a57bac85b6dfdad7fb289e5fb52d8df57131ac1e991c",
        "violence_cycle.pgm": "ba0b77cd0722b33cb27d10fe8046da9b153fe073b3d3fcaccc1fccee9d5a92a0",
    },
    "exact model2-sc-blind": {
        "combined.csv": "9939c12c3ea4dbefee0c1cc788b1d88e10c3e61e8a93697b543bce16fb003913",
        "mutual_violence.csv": "384bf8f32a6b2f4e9d06785c1f48277e40a89f24901d7d778ef60c6adac64563",
        "mutual_violence.pgm": "924e2b2e65a5cd3391a1da9f12585c6a5eef858669d43392d8618239e762fb03",
        "normal.csv": "b28e12ac5cf9c20c871a61f42bc20b29fd6b59c4a78fd3618e78d999d18ab4cf",
        "normal.pgm": "6bded26e163c7e2ff5bdd21969fff00f6d1dea54073c33829cbe93aa7f439e15",
        "recovering.csv": "29af4cc1beb1aacfb1bd8ea5b396c7b5c9f0195d4b1e3fb1612c9105370e9402",
        "recovering.pgm": "dd888d9157c7a1e972946940b0c77d455e1169a4fee2f1e45cf4646ea51f00d0",
        "separation.csv": "82651bfb64215bd83ed084ce19e4df4c88612e1ec78d9acbc3a586c423cc6484",
        "separation.pgm": "e6713c6afaf876288bb880dc2432d65ec842a66a29076c55463a3a9f1561f475",
        "threshold.csv": "c946da6ac5113b2c199f024f789884e95e35626ad111f2428c0b069313392c4a",
        "threshold.pgm": "0a0363881da7c8d11a01c648d80afbc76132f781557cdd433a142a56097ee4f1",
        "v1.csv": "1d5094546a2b66d6ccfc03ded0e55597687a309df649ed48ba6e78f90ccf9724",
        "v1.pgm": "50b86c24bf7c03f8f3a55bf9815df2b58dc6dfa97790c93307658d6ea4a3bf47",
        "v2.csv": "1421f445a6b8b7a8a525bbd18ece54684d4ae60703c7a6c5faa8ed5cdaba5c0a",
        "v2.pgm": "50d980dfaba0bf04f71b1fb0e007952457b301a8f84bc6936ac698d8776009e9",
        "violence_cycle.csv": "39aa5b515c61bdfc0e18a735af74b8c709ad68c47bc66f92a21496303f7c6cab",
        "violence_cycle.pgm": "81e462819b874ee667a2b967a264d066363463f85ea2cbdf02f85f5df8ee0148",
    },
    "exact model2-sc-gender": {
        "combined.csv": "b331992a22c3f0d8a291d59dcb7ca92904cd43a339c5e955f020420d1746aa46",
        "mutual_violence.csv": "1d8f787a657d96d3a55971d0a07d1d77b3a3bc522e89cd636571208d7db40268",
        "mutual_violence.pgm": "9bb1dec52f0485b13b4fd561d2fb7f2dd86ebe88265bf356eb34fca62a79403b",
        "normal.csv": "722627c4053478cf3bc537d1cb423237a68b5edf8d26ba0577ffd1fb58d5b906",
        "normal.pgm": "ee77ed5a5e9ad4da3e3f5fbeaf38d3ee480377b3c7074c14b9f05c2a2b41181c",
        "recovering.csv": "abf833f315acc2f742da3e1bfafad83737a4eaee8c30bbd7758d5800417484ed",
        "recovering.pgm": "5445f143e748d39ff9ea5eaf6ebb2dee64c7707303d03594f0f8e2928409341c",
        "separation.csv": "f7a70407bbc7b176ea1e80a4018a8b10f8c38987d87c1e97abfb5df0e87b35c3",
        "separation.pgm": "e6713c6afaf876288bb880dc2432d65ec842a66a29076c55463a3a9f1561f475",
        "threshold.csv": "e699bc35463473e5098061dee77b72d2031ed67b8c388386698cf27c59d46dc3",
        "threshold.pgm": "d98a78a9705a8458d0b88d6f1eca6cf2a16cbe93675f910138afb9bf8ddbc0a4",
        "v1.csv": "eccdbb0e077e17ed5967c693b9d307b7dfe917c19e3883dcaf605a79ce06d933",
        "v1.pgm": "82d4bb58c69538212e278f8d01a2eff52c0850cc6490dccefc14dcd1eaef9d49",
        "v2.csv": "5ccb3cfb8cf70e9f9bbc513c947b886e63161c04b5e519e97933a7c325df50ac",
        "v2.pgm": "4b5c8da9d177b78b2b46deb6ff823e651080553bc0828e4e41ee107b4cc44bcf",
        "violence_cycle.csv": "2503752b5e9c4c2ebdf2f82083dbe4b4dc0f67aedecb64bcdd2ec622a45fd7e4",
        "violence_cycle.pgm": "65bf8f4d62a64de1a75729f7a5666a7296380c54e97e5de14a98bccc3a228d6d",
    },
    "exact selfconsistent model1": {
        "trace.csv": "bd226dba7684ffe9bd78b5cd3b71e936d1afebf5519bfa80526428a47013a589",
    },
    "exact selfconsistent model2": {
        "trace.csv": "dc2b6d3b8d27a735fe02b7f632e2dd3364153e60c17492b429bc8039cc766a07",
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
