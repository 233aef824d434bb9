package dist

import (
	"crypto/sha256"
	"crypto/subtle"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net/http"
	"os"
)

// TokenEnv is the environment variable both sweepd and the coordinator
// commands read a shared auth token from when -token is not given.
const TokenEnv = "HALFPRICE_TOKEN"

// authorization renders the Authorization header value for a token.
func authorization(token string) string { return "Bearer " + token }

// tokenEqual compares a presented Authorization header against the
// expected value in constant time. Both sides are hashed first so the
// comparison leaks neither content nor length.
func tokenEqual(got, want string) bool {
	g := sha256.Sum256([]byte(got))
	w := sha256.Sum256([]byte(want))
	return subtle.ConstantTimeCompare(g[:], w[:]) == 1
}

// requireToken wraps a handler with a shared-token check: requests must
// carry "Authorization: Bearer <token>" or they are rejected with 401
// before the handler runs. An empty token disables the check (a trusted
// private fleet). /healthz stays unauthenticated either way — it leaks
// only liveness and run counts, and coordinators probe it before they
// have any reason to present credentials.
func requireToken(token string, h http.HandlerFunc) http.HandlerFunc {
	if token == "" {
		return h
	}
	want := authorization(token)
	return func(w http.ResponseWriter, r *http.Request) {
		if !tokenEqual(r.Header.Get("Authorization"), want) {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

// TLSConfigFromCA returns a client tls.Config that trusts the PEM
// certificates in file in addition to nothing else — the shape a fleet
// serving a self-signed or private-CA certificate needs on the
// coordinator side (-tls-ca).
func TLSConfigFromCA(file string) (*tls.Config, error) {
	pem, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("dist: reading CA file: %v", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("dist: no certificates found in %s", file)
	}
	return &tls.Config{RootCAs: pool}, nil
}
