package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// goldenVariants lists every memoized dataset variant by its loader.
var goldenVariants = []struct {
	name string
	load func(string, Scale) *Graph
}{
	{"dir", Load},
	{"undir", LoadUndirected},
	{"weighted", LoadWeighted},
	{"csc", LoadWithCSC},
	{"hub-undir", func(n string, s Scale) *Graph { return LoadHubSorted(n, s, "undir") }},
	{"hub-weighted", func(n string, s Scale) *Graph { return LoadHubSorted(n, s, "weighted") }},
	{"hub-csc", func(n string, s Scale) *Graph { return LoadHubSorted(n, s, "csc") }},
	{"hub-dir", func(n string, s Scale) *Graph { return LoadHubSorted(n, s, "dir") }},
}

// fingerprint hashes NumNodes and the five CSR/CSC arrays, each prefixed
// with its length, as little-endian uint32s.
func fingerprint(g *Graph) string {
	h := sha256.New()
	var b [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
	put(uint32(g.NumNodes))
	for _, a := range [][]uint32{g.OffsetList, g.EdgeList, g.Weights, g.InOffsetList, g.InEdgeList} {
		put(uint32(len(a)))
		for _, x := range a {
			put(x)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFingerprints pins every dataset variant byte for byte. The values
// come from loaders that rebuilt each variant from scratch and
// symmetrized through a map, so they vouch for the shared-base loaders;
// any change to a generator, to symmetrization, to sorting or to HubSort
// shows up here.
var goldenFingerprints = map[string]string{
	"po/dir/tiny":           "e2233bfb7d830c65a4d4cc120153ed5fba34074622ca3a6ea2f3e8e298a5ccfc",
	"po/undir/tiny":         "2935d0f815bbe8c9aaeba83ab72e6fd1d1987c7931b00b69cdec33d784a6c9ee",
	"po/weighted/tiny":      "0a90b136a87d4393cadcc88632d658be1a6a7f63499e07993bc76a58847727e5",
	"po/csc/tiny":           "4b617bd8acd2141f791376fc8633cd45dd5bd3703c103b0b889fbc1442dab50f",
	"po/hub-undir/tiny":     "e9ff4211499221218c5fa1d1e1c37dc9393982b10dacb277aabe971cfe62455d",
	"po/hub-weighted/tiny":  "536646bbf3ed2b8d00e361204e4436c990cd84b1c5fab8725e768256a55ad4d6",
	"po/hub-csc/tiny":       "3c0795e43caf270710e312af468ff2fd2f2466a1e5e88673f0adeb133ba5304d",
	"po/hub-dir/tiny":       "c7860c0463642e67cc46b7788153bce9b18380d7dc5ac25920371f6b24b8cbcb",
	"lj/dir/tiny":           "b14c3698f344e777ea78bf360fdccc6261a31beba1d818919bcc0eee8ffad546",
	"lj/undir/tiny":         "49a2b9b32f0b166f97de4084ab00c5455bfc66fb9db097eb2a514a7eab135997",
	"lj/weighted/tiny":      "3cbc584ce4fede5b1a23684df5fb42cb891b5dd9a5c5725f73427b197d341ad5",
	"lj/csc/tiny":           "dd3d0f925dfc8ba86a285a229bf3fe64d9ccc6e0ba452a310c4756a04e5f2250",
	"lj/hub-undir/tiny":     "d89a0628fa177505d1ed9d97acde471e57112e6b9685e9ca4e86316769045757",
	"lj/hub-weighted/tiny":  "3ab63a53e2cb7d2fa8d10f388cd8b5daff7a0cf12385a2003a7c17482523aa94",
	"lj/hub-csc/tiny":       "cf411d38313187cc16d4248c85d77ce4cdb961d19a2162636a107b2e2246f67a",
	"lj/hub-dir/tiny":       "caffda96c79519e39a557f9487cc2c9f1b2066bae95cbaa6a4eeb976598ea3b4",
	"or/dir/tiny":           "41417f78c94368e786cc82089b2ccfe6a72053ae3a79c553d78740ffc996285a",
	"or/undir/tiny":         "280cb38725a9fde86f56fcf015eec706b8bb4048e6a3f97c9bf9278b9fa82db2",
	"or/weighted/tiny":      "bc6b3275a7c48a814d4b41b8ef1d6a21385f14962ec85ec5532ea77b864462ad",
	"or/csc/tiny":           "fa9b4855242eac0016448b1a8169e0df40ec3c336eb1eb8e550137fcf438a056",
	"or/hub-undir/tiny":     "e7c6ea611d93d31ff7326123010e47bd84b51c2da9b1a0a4112d72687fc11e30",
	"or/hub-weighted/tiny":  "9f9ac856f4046cd3cfec90485bb56fe6c5367b88b67d63b6d09b8e9121b87562",
	"or/hub-csc/tiny":       "714915ff9e1f645ea0fddf2b69d0e08abc5a3f851d24799f74b2360493dfcad5",
	"or/hub-dir/tiny":       "8078bae7425303a0cea4af383adb2c93ebfa50fb94238dea3497e1e33995e731",
	"sk/dir/tiny":           "42a0c5cb7b7f3dea7af9ec81f7de84f3d2615ba3fd444ae3ee0c2a0246b13ed6",
	"sk/undir/tiny":         "46fd3b26918770d7704b3d3b558ee32f91a2c834613b32335ed99b11b8da965c",
	"sk/weighted/tiny":      "7eade6a7ece0b7026138c2deb498c7af22406bad3db935088d8e42164b56bc32",
	"sk/csc/tiny":           "0166f5680089714f0077b220fab0556ddb4923eaab81c7389e9607c6ae217d8b",
	"sk/hub-undir/tiny":     "8b14aca00bdec1224cc54c5207d70ce179275ddab4fab256eec2bc6ec1595b67",
	"sk/hub-weighted/tiny":  "b191886c9fba8a0a025d853f9a182921e5c8ebcd4357b9baaacc17241c1c3b01",
	"sk/hub-csc/tiny":       "5271cbf4da6b2a451e5d07b360370c271ef861fc76f5bd436308fe295c61eeff",
	"sk/hub-dir/tiny":       "ae0e8fc29305dee1c8f2d949b337a3c2d5222217106fed7ca9ed308e068f392d",
	"wb/dir/tiny":           "1c538345423e694f1e9fed24644f9a4cc1dd59c8e4cc341ba09498708af509d4",
	"wb/undir/tiny":         "11302339c1dd223d5007aa7be9f7ca2dbc35cdaa0eb16aadf97771e865cbdf54",
	"wb/weighted/tiny":      "fff6bb329b4d5bfbd07a50d6014cac15ca318de9f8cd12b3579028c343c3ba15",
	"wb/csc/tiny":           "f070b0c4f54bebd8418cef21f6f85abf4348ebc876cf9f347c97e7104593b5a7",
	"wb/hub-undir/tiny":     "2327492103156b89a2a3517f0d42ae3f530709e480fdb246fab6dca8baaaf35e",
	"wb/hub-weighted/tiny":  "a1e73ba3a104732f494757c7495cc8bc0c050bb41904981f32cc047be3784efe",
	"wb/hub-csc/tiny":       "549b7e0ff0b817121122076b79d13a2b2ec33dec5e2f8ff47f07c3a5f0560d83",
	"wb/hub-dir/tiny":       "8424ef52a487c9a465c10049c250dd056d62698112a99936de5a195e8361fdce",
	"po/dir/small":          "0c4306a1ea4dc2323cab7d90dbf74860b56998547d2bc60be465c91fccef6623",
	"po/undir/small":        "1207c5ff2ec759136cd56fdb1c040687b20f92d7294d95fd9524084429f63124",
	"po/weighted/small":     "45683265d95df27ac7f7ecc6bc3a2d62d1d82efa25d626686d404590d3218d2a",
	"po/csc/small":          "aedeacafcdca92305dd7db3c5fcafe91218c4f5ba644bcf3d03592c16b9895a6",
	"po/hub-undir/small":    "6f8c07ed783196daceee37a48b978fa76c90cee67d90bfc775e27b1dbf8cc46d",
	"po/hub-weighted/small": "358cf44f4aedeb5e0335bcab43fe6db6ae1e0218f6ba029ec278646a4e359c7b",
	"po/hub-csc/small":      "d1cc842bcb9b03067dcb85c6088c5a741c691ba230bb07f9c754db5952a749ac",
	"po/hub-dir/small":      "1a7c1bb0974b9ab5fba89d48e828702a5012ecc577bc57b69e814adeb9f5edfd",
	"lj/dir/small":          "09ffcb695538c8cc480183f1f2f448ee55cb280205e80cc6a4ca1cc09b6fe090",
	"lj/undir/small":        "56ade631c4e8ebb8bf3ba9e8ea89b66d89e0af7037c8dc53920c7ecd80f2d618",
	"lj/weighted/small":     "878a5da247dd6890c480fcaaa89c02fcbd0c01be661dc6b62474af29202a20cc",
	"lj/csc/small":          "7b3c067d82e1b8a40dbee45bf8a94524dbcd43cf9daa5e82d58bea12e7de8ea7",
	"lj/hub-undir/small":    "a946ed736c5c2fef92889c03861b92b4a3e6e25ab835f079daa04db20363ccae",
	"lj/hub-weighted/small": "ea9b9b50fa116789c59f1655d621c3ec60d20a3091890634e37d06a5ba0eece7",
	"lj/hub-csc/small":      "a6dba68426160d4d6ee52431be7535e171b053964ac0f9911e562a28fc4b97cd",
	"lj/hub-dir/small":      "2c52a96d2a28def9708219bc8aa105c7f2a96f91c27453b69e2526cfb3502fc7",
	"or/dir/small":          "09c46d38d1789ed1e92e79d22c380e628670e41ef3b3b94185c3b6fff2946e74",
	"or/undir/small":        "d35a8cdfca1ad5c8569a41171467d9c3d24fd5709cb292fc440628c9b9a94c4e",
	"or/weighted/small":     "3acdf0d88218b49e590235a3b30c93632b9b1502302edd206f1a3ad1b51a0b72",
	"or/csc/small":          "f996ddd427ca7e8f94913e0bbcf218cd5d43a2b8c44597590acf296798cecab7",
	"or/hub-undir/small":    "da5572b857c5accc319e279e1adbf080cda050e5c81847ee96e91beb97f76589",
	"or/hub-weighted/small": "39421251d9ad2d3e5e76ba116f11397d42fce0001c1b3dccf4ec60221432451a",
	"or/hub-csc/small":      "aabf44e3fd3beccf8f45cc95870223d1e9e5e4ee82b4c176dadb79125b76a56c",
	"or/hub-dir/small":      "b5066883d5f836cfa9df919534a2798f194a4af954dfef1e4223a7060f11a3bb",
	"sk/dir/small":          "9cd6f051a303d5bd6879edcec8279dd85b16341c705e85d020dd0f58dd19ed7f",
	"sk/undir/small":        "6f12beb893144b70e63050b1edc0e1a3aec553283fa36851c15fe54225cef6d2",
	"sk/weighted/small":     "2b28ac4a3a35eacadbbc5ef55e3ebe0390b648f14a1062dac83fdf9ad1d9645c",
	"sk/csc/small":          "332b5cb2033e0b83bb5b63adc6713a4a02549ef6695afac9b68c7c77a622033b",
	"sk/hub-undir/small":    "f335dd7b4c2c4254a950519490a7339f107130bfddc5ea3cb5a1f8e7421d478c",
	"sk/hub-weighted/small": "8c8cdc1175ea0d9138d5562f743c951b523813fc08ab8fdc582e037e0c0f8b34",
	"sk/hub-csc/small":      "373a0d65b905b93591dea1fd6f4f222e0057ddb14df1e203a94808bface7c6c7",
	"sk/hub-dir/small":      "328b4b741f7e975433a76a2e645f8743e1b3db87a619f49b82cb78cf0d1a41a4",
	"wb/dir/small":          "5f5fe45cc1ea9817d09d0d33c027cff219cbad57f55215f29a092e32801e8893",
	"wb/undir/small":        "59d0001c2ba09c28ea1ca50bcf2529d8a0f75a254d0b47033cb807152d64df44",
	"wb/weighted/small":     "b1f8b9c27efc0239a4a144b08d00ccc45c90f80ea94ae2d9cc3269599c1aa96c",
	"wb/csc/small":          "2e22471ce1bd22dee99de610ee768b3f279fc419fcd5a62a39923d4504d72964",
	"wb/hub-undir/small":    "88f290f24cf8737488925e7057a511fa38937ffb604e33696ec38bdcdb589f33",
	"wb/hub-weighted/small": "6ebafc1f2583bda748b2a56fe6c0f4c0bab14a8d7337747b21ac33aedce72342",
	"wb/hub-csc/small":      "da4271fe3f413135992e608617f6632323a9d54c69ab761ff08a6eda25263b6d",
	"wb/hub-dir/small":      "74cd29ad9166dda595f47effbb1040fe250da4946b7ec3d767af700616b55fd3",
}

func TestDatasetFingerprints(t *testing.T) {
	for _, scale := range []Scale{ScaleTiny, ScaleSmall} {
		for _, name := range DatasetNames() {
			for _, v := range goldenVariants {
				key := name + "/" + v.name + "/" + [...]string{"tiny", "small"}[scale]
				got := fingerprint(v.load(name, scale))
				if want := goldenFingerprints[key]; got != want {
					t.Errorf("%q: %q, // want %q", key, got, want)
				}
			}
		}
	}
}
