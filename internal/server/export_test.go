package server

// Identity and PortableIdentities let the external tests compare snapshot
// images by portable identity.
type Identity = identity

var PortableIdentities = portable
