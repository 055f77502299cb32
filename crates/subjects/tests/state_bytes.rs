//! The bytes `er-pi-rdl` produces, pinned.
//!
//! `Report::diff` against a scratch reference compares two runs of the same
//! `rdl`, so it cannot see `rdl` itself change what it encodes, observes or
//! serializes. These literals can: for the town recording, a `crdts`
//! recording and all twelve catalogue bugs, the digests of every replica's
//! `state_encode` bytes and observation after each prefix of the recorded
//! order ([`er_pi_subjects::prefix_digests`]), and the serde JSON of one
//! populated instance of each delta type.
//!
//! They were generated from the tree before `rdl`'s logs and element maps
//! became shared structures. A change that moves one on purpose — a new
//! field in a canonical encoding, say — replaces the row with the one the
//! failure message prints.

#[path = "../../../tests/suite/common/town.rs"]
mod town;

use er_pi::Session;
use er_pi_model::{ReplicaId, Value, Workload};
use er_pi_rdl::{DeltaSync, JsonDoc, LwwTimeSeries, MerkleLog, OrSet, Rga, TieBreak};
use er_pi_subjects::{prefix_digests, prefix_encodings, Bug, CrdtsModel, TownApp};

/// Per subject and prefix, initial states first: the digest of the state
/// bytes, then of the observations.
const PINNED: &[(&str, &[&str])] = &[
    (
        "Roshi-1",
        &[
            "bdfd4eb7812d369ad8432a124f146a2d de7cb107d1b373727a46af3d071b316d",
            "94a9e9f0182484231a8fbc0177e9dfae d2eec934b4bbd237e168cd8c2ea06863",
            "9d46cf31652e493f21effc9d3a02920d 771703979f449cba74a49e93ac51108d",
            "b8ba434304223a3c743520481b4c2fbe 98453b964ad659ce8baebb2de161ade3",
            "031c51a696392d16d297688b7548c731 9824df2e6e64b80fb88657f5f2316251",
            "0904b3c5d710c57b3df8edf3d47addc3 98453b964ad659ce8baebb2de161ade3",
            "6fb759c3078b78a219e270c89ffb060d 771703979f449cba74a49e93ac51108d",
            "3f3b69758a9d6f75d9a0c6dcd80384bc 1cfdb816bb6cd96d868f1fb505e2703c",
            "053d044dc8aaa568b3cf8d35827b648f 78f1eabb8cf2e6adb151293921f6ff45",
            "d183a08dd790fa764d07ae84c1841eef 60fe0726da4adb791976145487374def",
        ],
    ),
    (
        "Roshi-2",
        &[
            "6e77d216db3e9cc83358904eb078ca4d de7cb107d1b373727a46af3d071b316d",
            "7c444006b660b78db0f2c4a1917b9b8a d2eec934b4bbd237e168cd8c2ea06863",
            "f8c2d618be50ff106da31de1172853d2 d2eec934b4bbd237e168cd8c2ea06863",
            "e6940bee8c52abb8113721ac58872c49 771703979f449cba74a49e93ac51108d",
            "c4c6786eceace35f8bf7a10537fafd96 98453b964ad659ce8baebb2de161ade3",
            "b93b8c87409a402a78e33a7b127b8a3e 98453b964ad659ce8baebb2de161ade3",
            "1aa85a6ad63ba857b67be81fc7dae152 9824df2e6e64b80fb88657f5f2316251",
            "57f673cd82593623e0fac4458b44eb82 99d200bf3bc90bf54b099a307aedaa90",
            "29ebfd6ac3fbc37fae964d9ec21e5757 99d200bf3bc90bf54b099a307aedaa90",
            "aea2f8ad9216bf59569bf391b5da0e8a 17857bf28a17ecaad822d526c3974bd1",
            "f95470ed443be8f8ed5df9c50c8b7a8d 759f81fa4f38dc50fcd0bb825fd32b9c",
        ],
    ),
    (
        "Roshi-3",
        &[
            "3527ae9dc4d072d9ff11e7a2ea39effd da5ff0391f5c05ad51438aab1bdeb043",
            "32b9c33cb7b18d556679e45e76b17508 935033feb88294ef71e45cf6b77daf6b",
            "2df27e365baf017243db8e966193bc44 935033feb88294ef71e45cf6b77daf6b",
            "b44e708c26b75e88daf3d57b523598e1 e5120c928c1d78cf70f5a0657cad9143",
            "713620f7b7fe7f7022f0385d19075143 40b3435ec6e08c8f501164a0205d08b8",
            "93eaebe4374de707bf69f17a1c72f6a7 40b3435ec6e08c8f501164a0205d08b8",
            "1da37139b7b829e221641a7004e7857c 405bc814c1bafdec8e4b918334c953e5",
            "4df49c1e8cebee9d20a30777f78538f2 6ca109d3627efd864caba6a3b71335bb",
            "28ce56d2d8296d68eda495b8fe14fb6b 6ca109d3627efd864caba6a3b71335bb",
            "b8d8d6e58ad66a62d390456079e7c913 f2cd2696d73b2b974d74320adffaf29b",
            "5325e96fcb95a466a79e05de7e115368 365dd985349259490cd9b027d6b225c6",
            "734c50a8cd5e877b42a241ac1c0ea301 365dd985349259490cd9b027d6b225c6",
            "1c43afca9ccc8002f6e69edaa754802c 5bfae7d948a45aa7c7f6bf32a377bdab",
            "fb1c69540f23e8f330ecde0af2a95c06 29c282d2a9958079b8f4fd8b7857c6cd",
            "b954e5e826a5ba8c46ad55257645ea14 29c282d2a9958079b8f4fd8b7857c6cd",
            "6a572af7a14f77e43fd28afc5bcf11b8 535a6a2c1fcd081e74f3f14f48088157",
            "6318059ab41d11e1ff6c739abb958950 0d1c913934d69a3a3106d631c04b6abe",
            "a27413d6cd17b559764f3c8355e5b87e 0d1c913934d69a3a3106d631c04b6abe",
            "ae70a456368b4c8d6949804fa4c67b29 2de752a2e01ca871710106ea24dd43fd",
            "07cca97432b92e260e30278208bd414e d6371b5b28dbacda01d4ae371b14bfad",
            "d4fb6c1aa811d23990665424fae0c065 65945ea7f5373ac5b2e9493d7c9943b8",
            "a6aafb459d1953ddeb73e1cbfd9ebcf8 2142cc3584934749934183e3bbc011c7",
        ],
    ),
    (
        "OrbitDB-1",
        &[
            "9610101cb6ae2a8b4bd522861ab3b8bd adb1089dc7ceeb1940b0d0e13ef90d29",
            "7569fdf661f8d8cae2b0bb5132d1ee64 7d84536a8f22e2617be997266a6c732c",
            "488ffff11d269401ee37c31c1137db5f 7d84536a8f22e2617be997266a6c732c",
            "b63fe7991da1dfa9bdcb509aa75f1c4d 1075d4400610d7215cd30289cca89403",
            "cf96b46a3d46da428e8494c036d54a92 1075d4400610d7215cd30289cca89403",
            "f7d0a29fb3eb41bf1732e48b153332db a72085c8ad2d8b7145457048f30bf333",
            "0fc5ea8db13ade7c5069c45a763d3dbb a72085c8ad2d8b7145457048f30bf333",
            "506312ae9de54d6e779b9dea44f6686d 6c1ba1c9166926716051e575fe3970e9",
            "d26ac74012a49f1772483ebb3ae64b7b 6c1ba1c9166926716051e575fe3970e9",
            "39f917f20833e54d6a4c57c64c54ca4b 8f21a5193827ed7c541aa6b4a3cad750",
            "efaec635653a7edef271c4918c5d37b2 8f21a5193827ed7c541aa6b4a3cad750",
            "36ab8d60e79fcc8e86fe79b30b7e4b14 5c87ecf618f61595f7e56529e347a14d",
            "36ab8d60e79fcc8e86fe79b30b7e4b14 5c87ecf618f61595f7e56529e347a14d",
        ],
    ),
    (
        "OrbitDB-2",
        &[
            "2a13c9b82d67c65b8e5d901027c4b20d adb1089dc7ceeb1940b0d0e13ef90d29",
            "f2dfd80072c94c976787cf6679565153 c5539d983e742738d614dc67c7dab0bc",
            "8b5ac74c5fcdbc47aa4afed526f3c773 c5539d983e742738d614dc67c7dab0bc",
            "11f9a811c8fa5b3fe089f0143c4d51a9 c732897eed9fa281ff7739994006ca79",
            "850bd0bf2de093070ad338da470e5392 54d08fb0f7ef0a89fdbb59e27c42b069",
            "024df6822db4245142d2757eedd77bbc 54d08fb0f7ef0a89fdbb59e27c42b069",
            "81d791add9fc94a879c325a53c2f1292 b3be75281692350ccf4af6fdeb179cd1",
            "0ab7b80dce852d2a20d964f194007653 b3be75281692350ccf4af6fdeb179cd1",
            "c8f2b111239d3eb557a5c78f0cafaa7c 86baae0c97b6f258ac422d56baf22980",
        ],
    ),
    (
        "OrbitDB-3",
        &[
            "60f0d54edb823d6d377a73ead7879df3 adb1089dc7ceeb1940b0d0e13ef90d29",
            "bfc4e276da2e1ecc6628deb31ce950a7 7d84536a8f22e2617be997266a6c732c",
            "46b26323fa92ba1487dc43552bda936d 7d84536a8f22e2617be997266a6c732c",
            "232e4040ff888ffe6bce68a002189589 1075d4400610d7215cd30289cca89403",
            "7d56ca19d9943f8df9c7307f6b2f9f79 b9011148fdcce004a34cffa9ba0a8249",
            "4fd5e1d9c808bc0bd78321db8386d228 b9011148fdcce004a34cffa9ba0a8249",
            "75ae77216d34cbf9f1ece369f734e60e 548ca45ae2fed07361a1ff70bb878229",
            "f881256ddb160efc735b477eefd4fd29 548ca45ae2fed07361a1ff70bb878229",
            "75ae77216d34cbf9f1ece369f734e60e 548ca45ae2fed07361a1ff70bb878229",
            "53c4c5ebda6cd4252740fdd83e9b82da 548ca45ae2fed07361a1ff70bb878229",
            "cfd487abd8e742c16a1fe87385e3e95f e38601cc87daea4ec652eafed7dfa309",
            "7719b0410b11191ee8827ed18408a591 e38601cc87daea4ec652eafed7dfa309",
            "cfccc8999d32382f414ed8c16bf6df1c 8848bdbe1fc438438c1d37d972e3de63",
            "ce27dbc14e255eae18bb9763a4409b4a dfb4ecb1c98e4a7d9afa94a80451b95a",
            "f734e9fb9a4582658c23c1e8ded21be3 dfb4ecb1c98e4a7d9afa94a80451b95a",
            "4b6066c15b8c5d4a36a8e64dda92632c ca515d9edbefefc69dc1cbed274cf66d",
        ],
    ),
    (
        "OrbitDB-4",
        &[
            "bb7a6615fbdaab487c0b599b67f01814 afe75cdd25d242eeb159ca54577c2407",
            "afc319bd0e832b3099b1b99e3bbf3575 402298b2ef8a88e3f52d1199b3250f9d",
            "0b38ab76b1988096d50221e3a6132a21 6fa03371fd95f8dc868ddc174875eefa",
            "74f5d65fc10e27d20e973bebaee9c5cc 6fa03371fd95f8dc868ddc174875eefa",
            "3aafdd74ffd3cc5e7b6f724d8d35c040 4a85113326a5186291cd072ac86db3b4",
            "1bc846aa3c46b5cbfdeb6e9fa661e485 84213f29b93aace35338d0f195538280",
            "0aafdbf523853a98dc7defbd504627d1 6b0e5634d391beb838b427fa1f16d495",
            "38b9c21f853c01f24e84f4caa24aa552 6b0e5634d391beb838b427fa1f16d495",
            "2f9ae3643c68ffbdef2e091c18a18b25 2d058cd6875de4bfaf083938d3306a91",
            "0b2720c67292c6e7c1b57ac52d16ceb0 f509a06997f32762569a16b987492140",
            "dd46346cb5b414ef78c7340d9bbe345f 0de71ce3b0892cc3191b6fd9cd718e42",
            "9c4ee35f6d809f767afe667a6c6b7731 0de71ce3b0892cc3191b6fd9cd718e42",
            "b938e292808e408bfb3949f386ff0aa9 1dabd89be6feefc292daee8280582a06",
            "cb8db1f68d6adbc3f64d3c8eee2b85ef a4db7c3a17eeaf19d6c2461b2537de2f",
            "393876e1947c298306ba4c7a825b65e0 5cf8da1054980f8c0bb9c9ff2bcfba2b",
            "dcc092e211c0098e83d3c88f7ba109c2 5cf8da1054980f8c0bb9c9ff2bcfba2b",
            "8d8a8c1598882e48940536165effb58b 55d3b40d4e05d5cd36e16af85b28c9b7",
            "8d8a8c1598882e48940536165effb58b 55d3b40d4e05d5cd36e16af85b28c9b7",
            "8d8a8c1598882e48940536165effb58b 55d3b40d4e05d5cd36e16af85b28c9b7",
        ],
    ),
    (
        "OrbitDB-5",
        &[
            "bb7a6615fbdaab487c0b599b67f01814 afe75cdd25d242eeb159ca54577c2407",
            "7cd36eaba0116d72dc883d36e15fdf03 afe75cdd25d242eeb159ca54577c2407",
            "bd031d1c68eeedf1bd804718592c5366 402298b2ef8a88e3f52d1199b3250f9d",
            "f556ec3c09e720d2940608abc2dd2361 402298b2ef8a88e3f52d1199b3250f9d",
            "a3745aca10dfc0d71d9d59f45d79d9cf de513bffa182a176c48d52cbab1c0dcb",
            "5ce467e64e4a31b1906c9509648d131b 28b6a763195b1ac5da7074f5f3c72eb6",
            "3461db3b6a0c85888c55f53c03a8c992 28b6a763195b1ac5da7074f5f3c72eb6",
            "1bd4b9cf7e97cf5617eab577a7f6cc91 b45a9a0d419a048e7506227d1dff11ab",
            "6aa2764b9eddbf65ae641d476e8a05d9 ec0785458f4f82d399c1fc53bff647cf",
            "77d19f39f0cf181335f0bacb6175aad5 ec0785458f4f82d399c1fc53bff647cf",
            "349c49c75c502b2b6d862186f2afde17 9056d363265ff0cd9ef0d65321617c5d",
            "51708eb537d42705795631b375fbad52 9056d363265ff0cd9ef0d65321617c5d",
            "dc3692add9bafd62d54a91925561f41f 9056d363265ff0cd9ef0d65321617c5d",
            "51708eb537d42705795631b375fbad52 9056d363265ff0cd9ef0d65321617c5d",
            "70be83033f1843c5f8e8d2acc859b395 49ab1371f8dddb6b4f65e3418f8c8edf",
            "908975554f43d4e3c4c1665bb53c8cf3 49ab1371f8dddb6b4f65e3418f8c8edf",
            "f255e4d2c71e1bf3c275e4bd096881f1 3c4a38ed74b7bae6536f64d6707c3163",
            "6ea487a0ab326a8d5fb984cedcf8e08f 9099ea0324d5a52e4c6af84749f42dc6",
            "e097292307dd45d3c4626cce878ec118 9099ea0324d5a52e4c6af84749f42dc6",
            "754a0a42eb23716d61be499ccdd21965 7fd2d79393410823189edabf6c31d473",
            "1f08aef8158d3502c5fc5ed0a678859b ea60e691fa4c3768cfb14fe430742819",
            "798704e9c81242e98921e8b386f2be70 ea60e691fa4c3768cfb14fe430742819",
            "cfa030602505ed44233d0d4cb418ec89 58fcd1eba3157ad7d60adb02a12d511f",
            "bf0f93755e26dfd240ef3ee49f1947ac 58fcd1eba3157ad7d60adb02a12d511f",
            "7f6735b89b1d297c61afac4382feba31 58fcd1eba3157ad7d60adb02a12d511f",
        ],
    ),
    (
        "ReplicaDB-1",
        &[
            "b65f34d957288c40868a05a52bac833d 97d0d335f09ad364f385f047a0992e0d",
            "03ac852c7ad86f2cbfb7379b13872377 de3125bb709f00250b6b98437d0bb4bd",
            "ea05fe21e3dfadee13b8fc2a58944e92 2b2652e81871707143412459707c7ffe",
            "1acc6cfd2dec875c8681235d65217a2e db69df9e2dbd11e6d64579fbce52bc22",
            "1aa1ada4ea9d9a117292bd02bc1bd954 fd1e44782dbd109685f099caed55c3e2",
            "0d32a297be9f1e27c06a36896e6712d4 2ce94df93c4e2d07bf9f2a88be6ddeb8",
            "71ca6d023315f51483c7cb6b6860a94b 2ce94df93c4e2d07bf9f2a88be6ddeb8",
            "abc288a1c3e41b9d6399924a5e67f279 93513adc7606d864af05aba0b0cc57af",
            "44a8e758be11a20ae09ea7fb5e510a15 93513adc7606d864af05aba0b0cc57af",
            "0deb0685291b2796c094d727c8690e95 9e2b95b5e22b7037845806bc1fad7f4d",
            "0deb0685291b2796c094d727c8690e95 9e2b95b5e22b7037845806bc1fad7f4d",
        ],
    ),
    (
        "ReplicaDB-2",
        &[
            "b65f34d957288c40868a05a52bac833d 97d0d335f09ad364f385f047a0992e0d",
            "03ac852c7ad86f2cbfb7379b13872377 de3125bb709f00250b6b98437d0bb4bd",
            "ea05fe21e3dfadee13b8fc2a58944e92 2b2652e81871707143412459707c7ffe",
            "1acc6cfd2dec875c8681235d65217a2e db69df9e2dbd11e6d64579fbce52bc22",
            "960ee1536efa18309f40bf187497e789 9e3dc3e6e609e30cc13b5fa22a0a81d7",
            "dbd68b34c8c02e242edcd8e6fada36dd e1a68d9ae609e06c20919f4068109157",
            "fe364cb999b0c8477fc94a8953b33fdd b27b20275cd3af7420e86caa24020e45",
            "379edc9364e1a952f8308c35148ba242 b27b20275cd3af7420e86caa24020e45",
            "f06a4e5bed37a6c29ad36ff61815863b e702d26bb828059c89e85bfa8c9d5f54",
            "379edc9364e1a952f8308c35148ba242 b27b20275cd3af7420e86caa24020e45",
            "379edc9364e1a952f8308c35148ba242 b27b20275cd3af7420e86caa24020e45",
            "379edc9364e1a952f8308c35148ba242 b27b20275cd3af7420e86caa24020e45",
            "5ea3eaf5dc6619286666273232e9e990 39bb7c5dfc7cf60a7571e05436b80b55",
            "cd28ee46936f32d47783898ebf471052 39bb7c5dfc7cf60a7571e05436b80b55",
            "8f9cf9d2b7032dd47ab27b4336f24c50 511a4a0f51987b04603112ce4d604b09",
        ],
    ),
    (
        "Yorkie-1",
        &[
            "b156f1886491f2b1df718746c40e6d1d f681374ef4ea593e738271caa440750d",
            "acc3ac461367be4bee07a8108f5bbac0 0addfc5f3714b87e7368dcc496cf1d6c",
            "8fb981595477b27b43771f09ed7cc67c e296ee7c7b165d7c76f317c150e0dfeb",
            "a9d4a9417e8265b28c690ce5ed83e955 1b9d4de290ccd260b101f9f000ee19ab",
            "c0878d6c8d088a174b84b7a553bef524 2367d0f808ba8356bec7faf1e16da7d6",
            "94cd50b8c4370de7c7a2d3e6a43adda1 0401d8b27edde354a273fc7d02961c18",
            "3a8c653a9062f9bc4c79dacc6c468b3d c7e213d6b80d105d4e3df948308b4cc7",
            "09fe4da888d9f2567f0753b629e25d2e 4cac3c09d9e544497889b81c5e5464fd",
            "0450ff80681b1c85901e643425c3b46f 661bf552bf2b96d365b9f44419044813",
            "1f9c7a4373549ebf915bfdada6d95777 0162899a7387d6bf8e63df790aa989ec",
            "6929285eba09a777f8354c54a562c25a d3499ee97fb5d3cff7e5dbf2864f98c8",
            "ae9d294c70ace6db4c203424c5fb8965 82f9fa4a1dcfd7578a4ddffe5eecef05",
            "8cf88dc2b1385ae5f0ad73a153d63edf 681c6f350d25ee5b01be0548be6e5359",
            "546b77cbd5c9c53ccd3e238430d865cd d2adbe1b22d4b09ce51d74fbbc5a9495",
            "546b77cbd5c9c53ccd3e238430d865cd d2adbe1b22d4b09ce51d74fbbc5a9495",
            "983dabad0bb1f719a400dfb145aa6fb6 b230bdf179384695f3c7a7a4ccec73a7",
            "2478ad0360a7f507f3c86b2478fe005d 9bb3b835a20fe3b013a1b8821da64f4d",
            "2478ad0360a7f507f3c86b2478fe005d 9bb3b835a20fe3b013a1b8821da64f4d",
        ],
    ),
    (
        "Yorkie-2",
        &[
            "b156f1886491f2b1df718746c40e6d1d f681374ef4ea593e738271caa440750d",
            "3885149da0b6dc9f98808db170d6187d cea4f32cbcaa3814143b3d36907b449f",
            "1fb3463a035f221bd0f2966f9a8b65df cea4f32cbcaa3814143b3d36907b449f",
            "574b090fd751ba794e79f9bb269cc0e9 6f1e9512e8c98bdf4cbcd70c10c60bad",
            "4fa6b3304ff5caf650b233bbe7b7d78d 617561e40592906dd0002d50df5af48e",
            "8013ed656235ba659045a44ef3e06225 617561e40592906dd0002d50df5af48e",
            "5ec457ca53b4d7247419af69a349fbed 72f422d5771218760aaf73bc0277808b",
            "ecbf9c3a0a644a1cafe119a8307e2eb5 e2b17f449121b7ed180c556c9fecb490",
            "61213ce1a7730f28264a78e374f2886e e2b17f449121b7ed180c556c9fecb490",
            "9c03f95494642ffa79a9690d88ee103d 645a3a73adcec3648034569d110d2e55",
            "05205c18a1ec2b7b941c3b7a4fc02aa7 909a0b33682e7f5fa56f4765623944e5",
            "3a6586c7f3d82925cd34070f72f1e220 909a0b33682e7f5fa56f4765623944e5",
            "47184184ca673336d641b8aa2a8ca785 d924ba498535169155d1428548d2ba09",
            "9b4a565bebf68a0c9a4e9b7a102c98b3 7424180ccdc05086a4a84d59066efe02",
            "ae9aa23e19a0bc129cb9945436bb4287 7424180ccdc05086a4a84d59066efe02",
            "e54eb65153409d8f1e47ee6af7adf365 dbaa28535e6777ad2e8ae0b598adea4b",
            "2501002a13a225906f427852a391181a 1674e92e69c12d64b10fabc40403e9d7",
            "0032756d1c70eb67411e47a91eb12996 1674e92e69c12d64b10fabc40403e9d7",
            "4cfed270a4f3ac1217504ae4131ee1dc 1674e92e69c12d64b10fabc40403e9d7",
            "9b425888e0e6a39b2d281f27f08a0aeb 913d540de4e3987071584fb758573507",
            "f993fa155c4102c4574908972fbf42be f3a152f78345c216dddd2f61c179e8f2",
            "cfc69711545dfdfc1ac0f3dd4f62d203 f3a152f78345c216dddd2f61c179e8f2",
            "b84b6ed058193ed7c871fac8f6be4551 95a87041c4ed0d499d64ce37aca2804d",
        ],
    ),
    (
        "town",
        &[
            "cd7f3aca703da291c2210bc6fef57dd2 f460c5336cf8564a80a383bbf560e08d",
            "d693947bd57f63f673aea4946e3dede3 a9cf9f14a622a2eed8a57d7fa6cbb225",
            "439482c99d9247c25744ce395591a664 111912d9fa1dcb09c92ba217c79a3add",
            "bf9674bda8fa6b099e4576322331ad92 38618855748bd30f56074ef982e5e9a1",
            "da9337d606aa37fd580503a63b37d638 edae87e6b28c79931aade5f11bdf6d05",
            "5d8c25e42e39875bec63296f0b79c290 447598a775c77dc2f5092aa362588793",
            "389a65eefba50b01774686faafebe0bc 3e3bb03d2872f191086423d09017013d",
            "c422258147912f9bea43916eeab235b6 57e5874d641f11a62ebc5653255495e7",
            "d0f691db06aeff381423af43c6580d4c 854f929939258dc00302504d0a29bf4d",
            "24b3c0eb29b53d55add46e16340f9798 57e587438c1f11a62ebc5653254e8783",
            "e3fe357c5ac0d39e73cafea4c87980c7 017ad0591c612a862a61a76a317f2eb3",
        ],
    ),
    (
        "crdts",
        &[
            "8269a6e3d508d2e53610bd0f3f397fc5 259401d7c8ac7403a51f1d24647da29e",
            "f74f0bc96a03e77c148547434e57c426 f3c2fb3a6c62a9ccf83d25655409d3db",
            "a12e28d99a5100d0aea89853175d8822 b8e3b1f43a1a4c88f17e3dc497132350",
            "5b9775d56214639cb6c962ff7ceed1a9 0bfd8ffa4a6fbb5d597033aea9a13306",
            "7fdf50b551a9365d8cc661df567ee01f 06f9e91023d20b4d0b90cff52c3d5336",
            "0574a57d5f65ca345aa3d935f9ebf366 3ecd18a9acbb7dd7f1a195afad571f46",
            "661fafe8bf55e9bcc2a5ad3c0535e00e 50a712397b97387c06f5a274e8d87340",
            "41ae50b943886a362df38bf4b80fe59d 90f37172afeed9cd2425c5b8b34fbe7d",
            "07fa4cd09c67d59c756208d79f43ddd2 6b77502d6a7f097bb06365617ca546ac",
            "b9b4cb9be9fafbaf3eafe759f8b98d1b fd0da06e6cafd618dc215fccbef2a088",
            "15809567eb9964bb32f14180a5d69889 17dbbd305580eea9695ad8cc5639bde6",
            "4330a825794717bec0e66eaa26d7243f 1b8fd7f8a0c06b062908c0fda634c9d2",
            "b7858a426e6e7aae1f884b51ce44002c d254f4102f978078592ca8356552b62c",
            "30f0170ba66067676cd0f670bda5b574 c036a25a806424fc6e716db559887011",
            "e4fe4678b0e9e3797e3c04eba93dd7bb bcec138a5865f1efebcb6485cdaa792f",
            "c470d1bffd414a7e5171124e81b5cc6c 3c9270552c403e521c0640d09f6dbcf9",
            "650e590fd31ed20a0fe6f1ed5afe9638 83ebb2ba78846c15c51c5d39d9058f28",
            "23bb9e68a24c7dcf6d417edcebd5627a af211e7424942b027ee0adc3047c9e31",
            "a1b79628e4a35a734acf52ef74b3d60d cf29d2e621e1d65478e4210b7b04afac",
            "04a738887ca05f791057b9aabb2855f1 50717225f31f7471d8934af56afb8ecb",
            "6c1a6ef6fd8bb022a93c23dad6499589 50717225f31f7471d8934af56afb8ecb",
            "f1d63443d66d53531c31300b387ec61c b9cee0665b27a43aa2ca6bb537f693f6",
        ],
    ),
];

fn assert_pinned(subject: &str, digests: &[(u128, u128)]) {
    let actual: Vec<String> = digests
        .iter()
        .map(|(bytes, seen)| format!("{bytes:032x} {seen:032x}"))
        .collect();
    let row = || {
        let lines: Vec<String> = actual
            .iter()
            .map(|line| format!("            {line:?},\n"))
            .collect();
        format!(
            "    (\n        {subject:?},\n        &[\n{}        ],\n    ),",
            lines.concat()
        )
    };
    let pinned = PINNED
        .iter()
        .find(|(name, _)| *name == subject)
        .unwrap_or_else(|| panic!("{subject} has no pinned row; it is\n{}", row()));
    assert!(
        pinned.1 == actual,
        "{subject}: state bytes or observations moved (first at prefix {:?}); the row is now\n{}",
        pinned.1.iter().zip(&actual).position(|(a, b)| a != b),
        row()
    );
}

fn town_workload() -> Workload {
    let mut session = Session::new(TownApp::new(2));
    session.record(town::record_town);
    session.workload().expect("recorded").clone()
}

/// Every `crdts` structure, a correct and a naive move, fused and split
/// syncs.
fn crdts_workload() -> Workload {
    let r = ReplicaId::new;
    let mut w = Workload::builder();
    for i in 0..4i64 {
        let at = r((i % 3) as u16);
        let add = w.update(at, "set_add", [Value::from(i)]);
        w.update(at, "list_push", [Value::from(10 + i)]);
        w.sync_pair(at, r(((i + 1) % 3) as u16), add);
    }
    w.update(r(1), "set_remove", [Value::from(0)]);
    w.update(r(1), "list_move", [Value::from(0), Value::from(1)]);
    w.update(r(2), "list_move_naive", [Value::from(0), Value::from(1)]);
    w.update(r(0), "list_delete", [Value::from(0)]);
    w.update(r(0), "counter_inc", [Value::from(3)]);
    w.update(r(2), "reg_set", [Value::from(7)]);
    let create = w.update(r(2), "todo_create", [Value::from("write")]);
    w.sync_split(r(2), r(0), Some(create));
    w.build()
}

#[test]
fn town_and_crdts_bytes_are_pinned() {
    let town = prefix_digests(&TownApp::new(2), &town_workload());
    assert_pinned("town", &town);
    let crdts = prefix_digests(&CrdtsModel::new(3), &crdts_workload());
    assert_pinned("crdts", &crdts);
}

#[test]
fn catalogue_bytes_are_pinned() {
    for bug in Bug::catalogue() {
        let digests = bug.prefix_digests();
        assert_eq!(digests.len(), bug.events() + 1);
        assert_pinned(bug.name, &digests);
    }
}

/// Subsumption keys on [`er_pi_rdl::digest128`] of each replica's encoding,
/// folded into a state digest: over every encoding the pinned recordings
/// pass through, equal digests must mean equal bytes and equal bytes equal
/// digests — per replica and per state.
#[test]
fn the_state_digest_partitions_encodings_as_their_bytes_do() {
    use std::collections::HashMap;

    /// Records that `bytes` digest to `digest`; neither may have been seen
    /// with a different partner.
    fn pair<B: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
        by_bytes: &mut HashMap<B, u128>,
        by_digest: &mut HashMap<u128, B>,
        bytes: B,
        digest: u128,
    ) {
        assert_eq!(*by_bytes.entry(bytes.clone()).or_insert(digest), digest);
        assert_eq!(
            *by_digest.entry(digest).or_insert_with(|| bytes.clone()),
            bytes
        );
    }

    let mut walks = vec![
        prefix_encodings(&TownApp::new(2), &town_workload()),
        prefix_encodings(&CrdtsModel::new(3), &crdts_workload()),
    ];
    walks.extend(Bug::catalogue().iter().map(Bug::prefix_encodings));
    let (mut replicas, mut replica_digests) = (HashMap::new(), HashMap::new());
    let (mut states, mut state_digests) = (HashMap::new(), HashMap::new());
    let (mut replicas_seen, mut states_seen) = (0, 0);
    for (state_digest, encodings) in walks.into_iter().flatten() {
        let mut fold = 0;
        states_seen += 1;
        replicas_seen += encodings.len();
        for bytes in &encodings {
            let digest = er_pi_rdl::digest128(bytes);
            pair(&mut replicas, &mut replica_digests, bytes.clone(), digest);
            fold = er_pi_rdl::digest128_fold(fold, digest);
        }
        assert_eq!(state_digest, fold, "the default fold of replica digests");
        pair(&mut states, &mut state_digests, encodings, state_digest);
    }
    // Both directions were exercised: many classes, and some of them met
    // more than once.
    assert!(replicas.len() > 100 && replicas.len() < replicas_seen);
    assert!(states.len() > 100 && states.len() < states_seen);
}

/// Serializes `value`, compares with the literal, and reads it back.
fn assert_json<T>(what: &str, value: &T, pinned: &str)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).expect("serializes");
    assert_eq!(json, pinned, "{what}: serde JSON moved");
    let back: T = serde_json::from_str(&json).expect("reads back");
    assert_eq!(&back, value, "{what}: round trip");
}

#[test]
fn delta_type_json_is_pinned() {
    let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));

    let mut set = OrSet::new(a);
    set.insert("x".to_owned());
    set.insert("y".to_owned());
    set.remove(&"x".to_owned());
    let mut peer = OrSet::new(b);
    peer.insert("y".to_owned());
    set.sync_from(&peer);
    assert_json(
        "OrSet",
        &set,
        r#"{"replica":0,"entries":{"x":[],"y":[{"replica":0,"counter":2},{"replica":1,"counter":1}]},"removed_tags":[{"replica":0,"counter":1}],"log":[{"Add":{"element":"x","dot":{"replica":0,"counter":1}}},{"Add":{"element":"y","dot":{"replica":0,"counter":2}}},{"Remove":{"element":"x","observed":[{"replica":0,"counter":1}],"dot":{"replica":0,"counter":3}}},{"Add":{"element":"y","dot":{"replica":1,"counter":1}}}],"ctx":{"vector":{"counts":{"0":3,"1":1}},"cloud":[]}}"#,
    );

    let mut list = Rga::new(a);
    list.push(1i64);
    list.push(2);
    list.insert(1, 3);
    list.delete(0);
    list.move_item(1, 0);
    assert_json(
        "Rga",
        &list,
        r#"{"replica":0,"clock":{"replica":0,"time":8},"nodes":[{"id":{"time":3,"replica":0},"pos_id":{"time":7,"replica":0},"value":2,"deleted":false,"moved_at":{"time":7,"replica":0}},{"id":{"time":1,"replica":0},"pos_id":{"time":1,"replica":0},"value":1,"deleted":true,"moved_at":null},{"id":{"time":5,"replica":0},"pos_id":{"time":5,"replica":0},"value":3,"deleted":false,"moved_at":null}],"ctx":{"vector":{"counts":{"0":5}},"cloud":[]},"log":[{"Insert":{"id":{"time":1,"replica":0},"after":null,"value":1,"dot":{"replica":0,"counter":1}}},{"Insert":{"id":{"time":3,"replica":0},"after":{"time":1,"replica":0},"value":2,"dot":{"replica":0,"counter":2}}},{"Insert":{"id":{"time":5,"replica":0},"after":{"time":1,"replica":0},"value":3,"dot":{"replica":0,"counter":3}}},{"Delete":{"id":{"time":1,"replica":0},"dot":{"replica":0,"counter":4}}},{"Move":{"id":{"time":3,"replica":0},"after":null,"moved_at":{"time":7,"replica":0},"dot":{"replica":0,"counter":5}}}],"pending":[]}"#,
    );

    let mut log = MerkleLog::new(a, "alice");
    log.append(Value::from("one"));
    let mut other = MerkleLog::new(b, "bob");
    other.append(Value::from("two"));
    log.sync_from(&other);
    log.append(Value::from(3));
    assert_json(
        "MerkleLog",
        &log,
        r#"{"replica":0,"identity":"alice","clock":{"replica":0,"time":3},"sort":"ClockThenIdentity","entries":[{"hash":10301686882510496017,"clock":{"time":1,"replica":0},"identity":"alice","payload":{"Str":"one"},"refs":[],"dot":{"replica":0,"counter":1}},{"hash":10411446511757706046,"clock":{"time":1,"replica":1},"identity":"bob","payload":{"Str":"two"},"refs":[],"dot":{"replica":1,"counter":1}},{"hash":2450124520655146191,"clock":{"time":3,"replica":0},"identity":"alice","payload":{"Int":3},"refs":[10301686882510496017,10411446511757706046],"dot":{"replica":0,"counter":2}}],"ctx":{"vector":{"counts":{"0":2,"1":1}},"cloud":[]},"max_clock_skew":null,"rejected":0}"#,
    );

    let mut doc = JsonDoc::new(a);
    doc.set(&["profile", "name"], Value::from("ada")).unwrap();
    doc.set_object(
        &["settings"],
        [("theme".into(), Value::from("dark"))].into(),
    )
    .unwrap();
    doc.new_array(&["todos"]).unwrap();
    doc.arr_push(&["todos"], Value::from("write")).unwrap();
    doc.arr_push(&["todos"], Value::from("test")).unwrap();
    doc.arr_move(&["todos"], 1, 0).unwrap();
    doc.remove(&["profile", "name"]).unwrap();
    assert_json(
        "JsonDoc",
        &doc,
        r#"{"replica":0,"clock":{"replica":0,"time":8},"root":{"profile":{"ts":{"time":1,"replica":0},"replaced_at":null,"node":{"Obj":{"name":{"ts":{"time":7,"replica":0},"replaced_at":{"time":7,"replica":0},"node":"Removed"}}}},"settings":{"ts":{"time":3,"replica":0},"replaced_at":{"time":3,"replica":0},"node":{"Obj":{"theme":{"ts":{"time":3,"replica":0},"replaced_at":null,"node":{"Prim":{"Str":"dark"}}}}}},"todos":{"ts":{"time":5,"replica":0},"replaced_at":null,"node":{"Arr":{"replica":0,"clock":{"replica":0,"time":6},"nodes":[{"id":{"time":3,"replica":0},"pos_id":{"time":5,"replica":0},"value":{"Str":"test"},"deleted":false,"moved_at":{"time":5,"replica":0}},{"id":{"time":1,"replica":0},"pos_id":{"time":1,"replica":0},"value":{"Str":"write"},"deleted":false,"moved_at":null}],"ctx":{"vector":{"counts":{"0":3}},"cloud":[]},"log":[{"Insert":{"id":{"time":1,"replica":0},"after":null,"value":{"Str":"write"},"dot":{"replica":0,"counter":1}}},{"Insert":{"id":{"time":3,"replica":0},"after":{"time":1,"replica":0},"value":{"Str":"test"},"dot":{"replica":0,"counter":2}}},{"Move":{"id":{"time":3,"replica":0},"after":null,"moved_at":{"time":5,"replica":0},"dot":{"replica":0,"counter":3}}}],"pending":[]}}}},"ctx":{"vector":{"counts":{"0":7}},"cloud":[]},"log":[{"SetPrim":{"path":["profile","name"],"value":{"Str":"ada"},"ts":{"time":1,"replica":0},"dot":{"replica":0,"counter":1}}},{"SetObject":{"path":["settings"],"entries":{"theme":{"Str":"dark"}},"ts":{"time":3,"replica":0},"dot":{"replica":0,"counter":2}}},{"NewArray":{"path":["todos"],"ts":{"time":5,"replica":0},"dot":{"replica":0,"counter":3}}},{"Arr":{"path":["todos"],"op":{"Insert":{"id":{"time":1,"replica":0},"after":null,"value":{"Str":"write"},"dot":{"replica":0,"counter":1}}},"dot":{"replica":0,"counter":4}}},{"Arr":{"path":["todos"],"op":{"Insert":{"id":{"time":3,"replica":0},"after":{"time":1,"replica":0},"value":{"Str":"test"},"dot":{"replica":0,"counter":2}}},"dot":{"replica":0,"counter":5}}},{"Arr":{"path":["todos"],"op":{"Move":{"id":{"time":3,"replica":0},"after":null,"moved_at":{"time":5,"replica":0},"dot":{"replica":0,"counter":3}}},"dot":{"replica":0,"counter":6}}},{"Remove":{"path":["profile","name"],"ts":{"time":7,"replica":0},"dot":{"replica":0,"counter":7}}}],"pending":[]}"#,
    );

    let mut series = LwwTimeSeries::new(TieBreak::InsertWins);
    series.insert("k", "m1", 10);
    series.delete("k", "m1", 20);
    series.insert("j", "m2", 5);
    assert_json(
        "LwwTimeSeries",
        &series,
        r#"{"tie":"InsertWins","keys":{"j":{"m2":{"score":5,"kind":"Insert"}},"k":{"m1":{"score":20,"kind":"Delete"}}},"log":[{"Insert":{"key":"k","member":"m1","score":10}},{"Delete":{"key":"k","member":"m1","score":20}},{"Insert":{"key":"j","member":"m2","score":5}}]}"#,
    );
}
