package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// registryDigests pins every registry experiment's output: the SHA-256
// of its Result JSON followed by its text table and notes (resultBytes)
// at Seed 2012, Trials 2, Scale 1. The values were recorded while the
// sweep still ran Uniform-rule E-process trials through a lockstep
// batch engine, whose output a registry-wide suite had pinned equal to
// sequential runs; any engine or scheduling change must keep them. A
// mismatch prints the new digest, for a deliberate re-pin.
var registryDigests = map[string]string{
	"thm1":       "efd5c2fabdfd5a5e7e050b217d0446de18b102b855e0eec8b13690cd88e74407",
	"radzik":     "e4236cb5e098e4d635383c21a9968164b908e14f89b52b9a41fd471aeabf21ef",
	"cor2":       "cde956b93eea03f264af61c80f4fa56aec088a1850d3ea59249acbb236a13238",
	"eq3":        "555260564c8b33f959256d25bd8ed06fd861d688ee02bc8c33a4faff0c7a1235",
	"thm3":       "cb4896f288e1677d79628568314a1a46489583a1ed7d825bc51d5a9065146ef9",
	"cor4":       "c52ad00cd80f1bb281cadb1764223eda9441eb650522aa5d7c11d5ef3e5fbfe7",
	"hcube":      "80aebb8ecf9ac03a328beeb24c1a1f2302ed5906034fc4566422653ed6373ddf",
	"star":       "a1dbee43e1be337aa221c0e8f8ce65a7006b3857971d524dd738b3b7536baabb",
	"rulea":      "f4983cd1f7efac00811187a7fe90f28101019dce703a03fa100b94801783548c",
	"p1p2":       "bc75f07b7f89bde503f58fb8869d91c367c643b9fcf511f1d133e45059546d01",
	"grw":        "99275a93986a68ab0f77fc82a9c29b3c9e48e5e34c593521ea71375a01cb4006",
	"compare":    "f2b97e02ca49754e6441a8a294f5a1780f177f9e30864423a506427b73e20e21",
	"ablation":   "3540788b082ca5ad7ebc3783c7b129b4473b21765083fcb25a291a74b2ef7363",
	"growth":     "600f0d6fe5ef395071c557609d4c59aa23a3d7d5af2a3dbda91f01c9bcc3cc8a",
	"bias":       "c74f3f0451a4d436f81b5aa5d12d17e7b5d509dc4474f92164efe57ee32f0177",
	"eq4":        "7ee2ef5f3f6da7122a3de02bcb70dc2d9a1d59317e52b59cc9a6c91ae61e380b",
	"lemma13":    "ade0ee087d2f14ce27fcff86864474beb4a694d24ff037e5fe4df6cc79ae1442",
	"phases":     "610a01c86c132fcbdfad1ceaa82e2998d4a3eb7fb20dce5ea86431d7a5255ef3",
	"degseq":     "8100c843a21c738801af58fd62eb856967ba2bdfaee73cdfd2e37abc723a188f",
	"fig1":       "0ef92a5494ac63bd4e484f3b74f24bb660059dd100ffd4d5090a9b8142610666",
	"scalecover": "2a91a0db77d613c237dc0baf643190b4a45cebf41807961882ab30dd349d36dc",
	"pcfcover":   "fed12855843696435b84330d2bf2e3c2f379b603ef1d88c2ac171cd290cb0d1a",
	"churncover": "3f429ed00b60b986d0f81bcc6caecc0701885371e02670add6e4f527b73b9787",
}

func TestRegistryResultDigests(t *testing.T) {
	for _, e := range Registry() {
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run(context.Background(), ExpConfig{Seed: 2012, Trials: 2}, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			j, tb := resultBytes(t, res)
			sum := sha256.Sum256([]byte(j + tb))
			if got, want := hex.EncodeToString(sum[:]), registryDigests[e.Name]; got != want {
				t.Errorf("%s: output digest %s, pinned %q", e.Name, got, want)
			}
		})
	}
}
