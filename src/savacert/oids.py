"""Well-known object identifiers used across the package."""

from .der import Oid

# Name attribute types
AT_COUNTRY = Oid("2.5.4.6")
AT_ORGANIZATION = Oid("2.5.4.10")
AT_ORG_UNIT = Oid("2.5.4.11")
AT_COMMON_NAME = Oid("2.5.4.3")

# Certificate extensions
EXT_KEY_USAGE = Oid("2.5.29.15")
EXT_BASIC_CONSTRAINTS = Oid("2.5.29.19")
EXT_NAME_CONSTRAINTS = Oid("2.5.29.30")
EXT_CRL_DISTRIBUTION_POINT = Oid("2.5.29.31")
EXT_CERTIFICATE_POLICIES = Oid("2.5.29.32")
EXT_POLICY_MAPPINGS = Oid("2.5.29.33")
EXT_POLICY_CONSTRAINTS = Oid("2.5.29.36")

ANY_POLICY = Oid("2.5.29.32.0")

# Signature algorithm (private arc)
ALG_ED25519 = Oid("1.3.6.1.4.1.57264.1.1")

# Validation-request extensions (private arc)
REQ_INTENDED_USAGE = Oid("1.3.6.1.4.1.57264.2.1")
REQ_SUPPLIED_CHAINS = Oid("1.3.6.1.4.1.57264.2.2")
REQ_WANT_BACKS = Oid("1.3.6.1.4.1.57264.2.3")
REQ_TIME_OVERRIDE = Oid("1.3.6.1.4.1.57264.2.4")

# Server validation policies (private arc, configured per deployment)
POLICY_DEFAULT = Oid("1.3.6.1.4.1.57264.3.1")

ATTRIBUTE_LABELS = {
    AT_COUNTRY: "C",
    AT_ORGANIZATION: "O",
    AT_ORG_UNIT: "OU",
    AT_COMMON_NAME: "CN",
}
ATTRIBUTE_BY_LABEL = {label: oid for oid, label in ATTRIBUTE_LABELS.items()}
