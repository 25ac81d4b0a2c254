package jobs

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzDecodeSpec: arbitrary bytes through the job-spec decoder must never
// panic; every rejection is a typed error wrapping ErrBadSpec, and every
// accepted spec is internally consistent (re-validates, fingerprints).
func FuzzDecodeSpec(f *testing.F) {
	valid, _ := json.Marshal(specFixture("alice"))
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"tenant":"a","source":".model m\n.end\n"}`))
	f.Add([]byte(`{"tenant":"a","source":"x","options":{"seed":-1,"retries":16}}`))
	f.Add([]byte(`{"tenant":"UPPER","source":"x"}`))
	f.Add([]byte(`{"tenant":"a","source":"x","options":{"place_effort":1e308}}`))
	f.Add([]byte(`{"tenant":"a","source":"x","options":{"profile":"min-delay"}}`))
	f.Add([]byte(`{"tenant":"a","source":"x","options":{"profile":"fastest"}}`)) // SpecError on options.profile
	f.Add([]byte(`{"tenant":"a","source":"x","options":{"timing_driven_place":true}}`))
	f.Add([]byte(`{"tenant":"a","source":"x","options":{"timing_driven_route":true}}`))
	f.Add([]byte(`[`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte("\x00\xff\xfe"))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("DecodeSpec error %v does not wrap ErrBadSpec", err)
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("DecodeSpec error %T is not a *SpecError", err)
			}
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("accepted spec fails Validate: %v", verr)
		}
		if fp := spec.Fingerprint(); len(fp) != 64 {
			t.Fatalf("fingerprint %q is not a hex SHA-256", fp)
		}
	})
}

// FuzzParseRecord: arbitrary WAL lines — truncated, duplicated fields,
// garbage — must never panic the record parser; every rejection wraps
// ErrCorruptWAL with a *RecordError, and every accepted record passes its
// own validation.
func FuzzParseRecord(f *testing.F) {
	spec := specFixture("alice")
	sub, _ := json.Marshal(Record{Seq: 1, Kind: RecSubmit, Job: "j000001", Spec: &spec})
	f.Add(sub)
	f.Add([]byte(`{"seq":2,"kind":"start","job":"j000001","attempt":1}`))
	f.Add([]byte(`{"seq":3,"kind":"done","job":"j000001","state":"succeeded","artifact":"ab"}`))
	f.Add([]byte(`{"seq":4,"kind":"cancel","job":"j000001"}`))
	f.Add(sub[:len(sub)/2]) // truncated mid-record
	f.Add(append(append([]byte{}, sub...), sub...))
	f.Add([]byte(`{"seq":"one","kind":"start"}`))
	f.Add([]byte(`{"seq":18446744073709551615,"kind":"done","job":"j1","state":"failed"}`))
	f.Add([]byte(``))
	f.Add([]byte("\xff\x00 not json"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ParseRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("ParseRecord error %v does not wrap ErrCorruptWAL", err)
			}
			var re *RecordError
			if !errors.As(err, &re) {
				t.Fatalf("ParseRecord error %T is not a *RecordError", err)
			}
			return
		}
		if rec.Seq == 0 || rec.Job == "" {
			t.Fatalf("accepted record is invalid: %+v", rec)
		}
		if verr := rec.validate(); verr != nil {
			t.Fatalf("accepted record fails validate: %v", verr)
		}
	})
}
