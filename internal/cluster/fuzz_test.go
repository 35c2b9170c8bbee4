package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzMembershipJSON feeds arbitrary bytes to the control plane's two
// decoders: the seed's (decodePost, behind POST /cluster/join) and an
// agent's (decodeReply, for /cluster/view and the join reply). Whatever
// either accepts re-encodes to the same value, and the join handler
// answers any body with a status rather than a panic.
func FuzzMembershipJSON(f *testing.F) {
	spec := CatalogSpec{Workload: "sse", Rows: 9000, Seed: 7, DataNodes: 3}
	view := View{Version: 4, Members: []Member{
		{ID: 0, Addr: "127.0.0.1:7000", Ctl: "127.0.0.1:8000", State: StateAlive, Incarnation: 1},
		{ID: 2, Addr: "127.0.0.1:7002", Ctl: "127.0.0.1:8002", State: StateDead, Incarnation: 3},
	}}
	for _, v := range []any{
		joinRequest{ID: 1, Addr: "127.0.0.1:7001", Ctl: "127.0.0.1:8001", Spec: spec},
		joinResponse{Spec: spec, Timing: toWire(Timing{}), View: view},
		view,
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte(`{"members":[{"id":1,"state":9}]}`))
	f.Add([]byte(`{"id":-1,"spec":{}}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var jr joinRequest
		rec := httptest.NewRecorder()
		if decodePost(rec, httptest.NewRequest(http.MethodPost, "/cluster/join", bytes.NewReader(data)), &jr) {
			roundTrips(t, jr)
		} else if rec.Code != http.StatusBadRequest {
			t.Fatalf("a body decodePost refused answered %d", rec.Code)
		}
		for _, out := range []any{new(View), new(joinResponse)} {
			resp := &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(data))}
			if decodeReply(resp, out) == nil {
				roundTrips(t, reflect.ValueOf(out).Elem().Interface())
			}
		}
		rec = httptest.NewRecorder()
		NewRegistry(spec, Timing{}).Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/cluster/join", bytes.NewReader(data)))
		if rec.Code == http.StatusOK {
			var reply joinResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("the join reply does not decode: %v\n%s", err, rec.Body.Bytes())
			}
			roundTrips(t, reply)
		}
	})
}

// roundTrips requires v to survive an encode and a decode unchanged.
func roundTrips(t *testing.T, v any) {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%#v does not encode: %v", v, err)
	}
	back := reflect.New(reflect.TypeOf(v))
	if err := json.Unmarshal(enc, back.Interface()); err != nil {
		t.Fatalf("%s does not decode: %v", enc, err)
	}
	if !reflect.DeepEqual(back.Elem().Interface(), v) {
		t.Fatalf("%#v re-encodes as %s, which decodes to %#v", v, enc, back.Elem().Interface())
	}
}
