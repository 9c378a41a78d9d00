package bench

import (
	"testing"

	"sufsat"
)

// TestAlphaRenamePreservesFingerprint: every Sample16 formula, renamed,
// must parse and land on the identical canonical fingerprint.
func TestAlphaRenamePreservesFingerprint(t *testing.T) {
	for _, bm := range Sample16() {
		f, _ := bm.Build()
		src := f.String()
		for salt := 0; salt < 3; salt++ {
			renamed := AlphaRename(src, salt)
			if salt > 0 && renamed == src {
				t.Errorf("%s: rename with salt %d is a no-op", bm.Name, salt)
			}
			b := sufsat.NewBuilder()
			orig, err := b.Parse(src)
			if err != nil {
				t.Fatalf("%s: original does not parse: %v", bm.Name, err)
			}
			b2 := sufsat.NewBuilder()
			rf, err := b2.Parse(renamed)
			if err != nil {
				t.Fatalf("%s salt %d: renamed spelling does not parse: %v\n%s", bm.Name, salt, err, renamed)
			}
			if orig.Fingerprint() != rf.Fingerprint() {
				t.Errorf("%s salt %d: fingerprint changed under alpha-renaming", bm.Name, salt)
			}
		}
	}
}
