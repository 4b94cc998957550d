//! Services, versions, and the catalog (`B` in the paper).
//!
//! A [`Service`] models an atomic architectural component of the application
//! (e.g. one microservice). A service is available in one or more
//! [`ServiceVersion`]s; each version carries its static configuration `scᵢ`
//! ([`Endpoint`]: host, port). Whenever a change is rolled out, a new version
//! of the service is launched and registered with the [`ServiceCatalog`].

use crate::error::ModelError;
use crate::ids::{IdAllocator, ServiceId, VersionId};
use std::collections::BTreeMap;
use std::fmt;

/// Static configuration `scᵢ` of a service version: where the version can be
/// reached on the (possibly simulated) network.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    host: String,
    port: u16,
}

impl Endpoint {
    /// Creates an endpoint from a host name (or IP address) and a port.
    pub fn new(host: impl Into<String>, port: u16) -> Self {
        Self {
            host: host.into(),
            port,
        }
    }

    /// The host name or IP address.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The TCP port.
    pub fn port(&self) -> u16 {
        self.port
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// One concrete, deployable version `vⱼ` of a service, together with its
/// static configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceVersion {
    name: String,
    endpoint: Endpoint,
    /// Free-form labels (e.g. `track=canary`, `git-sha=…`). Not interpreted
    /// by the model, but carried along for tooling.
    labels: BTreeMap<String, String>,
}

impl ServiceVersion {
    /// Creates a version with a human readable name and an endpoint.
    pub fn new(name: impl Into<String>, endpoint: Endpoint) -> Self {
        Self {
            name: name.into(),
            endpoint,
            labels: BTreeMap::new(),
        }
    }

    /// Adds a label to the version (builder style).
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.insert(key.into(), value.into());
        self
    }

    /// The version name (e.g. `"v2-fastsearch"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The static endpoint configuration.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The labels attached to this version.
    pub fn labels(&self) -> &BTreeMap<String, String> {
        &self.labels
    }
}

/// An atomic architectural component `bᵢ ∈ B` (a microservice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Service {
    name: String,
    description: Option<String>,
}

impl Service {
    /// Creates a service with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            description: None,
        }
    }

    /// Attaches a description (builder style).
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = Some(description.into());
        self
    }

    /// The service name (e.g. `"search"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The optional description.
    pub fn description(&self) -> Option<&str> {
        self.description.as_deref()
    }
}

/// Internal record of a registered service plus its versions.
#[derive(Debug, Clone, PartialEq)]
struct ServiceEntry {
    service: Service,
    versions: Vec<VersionId>,
}

/// The set of services `B = {b₁, …, bₙ}` of a strategy plus every known
/// version of each service.
///
/// The catalog owns id allocation so that services and versions get stable,
/// deterministic identifiers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceCatalog {
    services: BTreeMap<ServiceId, ServiceEntry>,
    versions: BTreeMap<VersionId, (ServiceId, ServiceVersion)>,
    service_ids: IdAllocator,
    version_ids: IdAllocator,
}

impl ServiceCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a service and returns its id.
    pub fn add_service(&mut self, service: Service) -> ServiceId {
        let id: ServiceId = self.service_ids.next_id();
        self.services.insert(
            id,
            ServiceEntry {
                service,
                versions: Vec::new(),
            },
        );
        id
    }

    /// Registers a new version of `service`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownService`] if the service is not part of
    /// the catalog and [`ModelError::Duplicate`] if a version with the same
    /// name is already registered for the service.
    pub fn add_version(
        &mut self,
        service: ServiceId,
        version: ServiceVersion,
    ) -> Result<VersionId, ModelError> {
        let entry = self
            .services
            .get_mut(&service)
            .ok_or(ModelError::UnknownService(service))?;
        let duplicate = entry.versions.iter().any(|existing| {
            self.versions
                .get(existing)
                .map(|(_, v)| v.name() == version.name())
                .unwrap_or(false)
        });
        if duplicate {
            return Err(ModelError::Duplicate(format!(
                "version '{}' of service '{}'",
                version.name(),
                entry.service.name()
            )));
        }
        let id: VersionId = self.version_ids.next_id();
        entry.versions.push(id);
        self.versions.insert(id, (service, version));
        Ok(id)
    }

    /// Looks up a service by id.
    pub fn service(&self, id: ServiceId) -> Option<&Service> {
        self.services.get(&id).map(|e| &e.service)
    }

    /// Looks up a service by name.
    pub fn service_by_name(&self, name: &str) -> Option<(ServiceId, &Service)> {
        self.services
            .iter()
            .find(|(_, e)| e.service.name() == name)
            .map(|(id, e)| (*id, &e.service))
    }

    /// Looks up a version by id.
    pub fn version(&self, id: VersionId) -> Option<&ServiceVersion> {
        self.versions.get(&id).map(|(_, v)| v)
    }

    /// Returns the service a version belongs to.
    pub fn service_of_version(&self, id: VersionId) -> Option<ServiceId> {
        self.versions.get(&id).map(|(s, _)| *s)
    }

    /// Looks up a version of a given service by name.
    pub fn version_by_name(
        &self,
        service: ServiceId,
        name: &str,
    ) -> Option<(VersionId, &ServiceVersion)> {
        let entry = self.services.get(&service)?;
        entry.versions.iter().find_map(|vid| {
            let (_, version) = self.versions.get(vid)?;
            (version.name() == name).then_some((*vid, version))
        })
    }

    /// Returns all versions registered for a service, in registration order.
    pub fn versions_of(&self, service: ServiceId) -> Vec<VersionId> {
        self.services
            .get(&service)
            .map(|e| e.versions.clone())
            .unwrap_or_default()
    }

    /// Iterates over all services.
    pub fn services(&self) -> impl Iterator<Item = (ServiceId, &Service)> {
        self.services.iter().map(|(id, e)| (*id, &e.service))
    }

    /// Iterates over all versions of all services.
    pub fn all_versions(&self) -> impl Iterator<Item = (VersionId, ServiceId, &ServiceVersion)> {
        self.versions.iter().map(|(vid, (sid, v))| (*vid, *sid, v))
    }

    /// Number of registered services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Number of registered versions across all services.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// Returns `true` if the catalog knows the given service.
    pub fn contains_service(&self, id: ServiceId) -> bool {
        self.services.contains_key(&id)
    }

    /// Returns `true` if the catalog knows the given version.
    pub fn contains_version(&self, id: VersionId) -> bool {
        self.versions.contains_key(&id)
    }

    /// Validates that a version belongs to a service.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownService`], [`ModelError::UnknownVersion`],
    /// or [`ModelError::Validation`] if the version exists but belongs to a
    /// different service.
    pub fn ensure_version_of(
        &self,
        service: ServiceId,
        version: VersionId,
    ) -> Result<(), ModelError> {
        if !self.contains_service(service) {
            return Err(ModelError::UnknownService(service));
        }
        match self.service_of_version(version) {
            None => Err(ModelError::UnknownVersion(version)),
            Some(owner) if owner == service => Ok(()),
            Some(owner) => Err(ModelError::Validation(format!(
                "version {version} belongs to service {owner}, not {service}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_with_search() -> (ServiceCatalog, ServiceId, VersionId, VersionId) {
        let mut catalog = ServiceCatalog::new();
        let search = catalog.add_service(Service::new("search").with_description("product search"));
        let stable = catalog
            .add_version(
                search,
                ServiceVersion::new("v1", Endpoint::new("10.0.0.1", 8080)),
            )
            .unwrap();
        let canary = catalog
            .add_version(
                search,
                ServiceVersion::new("v2-fast", Endpoint::new("10.0.0.2", 8080))
                    .with_label("track", "canary"),
            )
            .unwrap();
        (catalog, search, stable, canary)
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(
            Endpoint::new("search.internal", 80).to_string(),
            "search.internal:80"
        );
    }

    #[test]
    fn add_and_lookup_services_and_versions() {
        let (catalog, search, stable, canary) = catalog_with_search();
        assert_eq!(catalog.service_count(), 1);
        assert_eq!(catalog.version_count(), 2);
        assert_eq!(catalog.service(search).unwrap().name(), "search");
        assert_eq!(catalog.version(stable).unwrap().name(), "v1");
        assert_eq!(catalog.version(canary).unwrap().labels()["track"], "canary");
        assert_eq!(catalog.service_of_version(canary), Some(search));
        assert_eq!(catalog.versions_of(search), vec![stable, canary]);
    }

    #[test]
    fn lookup_by_name() {
        let (catalog, search, stable, _) = catalog_with_search();
        assert_eq!(catalog.service_by_name("search").unwrap().0, search);
        assert!(catalog.service_by_name("payments").is_none());
        assert_eq!(catalog.version_by_name(search, "v1").unwrap().0, stable);
        assert!(catalog.version_by_name(search, "v99").is_none());
    }

    #[test]
    fn duplicate_version_name_is_rejected() {
        let (mut catalog, search, _, _) = catalog_with_search();
        let err = catalog
            .add_version(
                search,
                ServiceVersion::new("v1", Endpoint::new("10.0.0.9", 80)),
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::Duplicate(_)));
    }

    #[test]
    fn adding_version_to_unknown_service_fails() {
        let mut catalog = ServiceCatalog::new();
        let err = catalog
            .add_version(
                ServiceId::new(99),
                ServiceVersion::new("v1", Endpoint::new("10.0.0.1", 80)),
            )
            .unwrap_err();
        assert_eq!(err, ModelError::UnknownService(ServiceId::new(99)));
    }

    #[test]
    fn ensure_version_of_checks_ownership() {
        let (mut catalog, search, stable, _) = catalog_with_search();
        let product = catalog.add_service(Service::new("product"));
        let product_v1 = catalog
            .add_version(
                product,
                ServiceVersion::new("v1", Endpoint::new("10.0.1.1", 80)),
            )
            .unwrap();

        assert!(catalog.ensure_version_of(search, stable).is_ok());
        assert!(matches!(
            catalog.ensure_version_of(search, product_v1),
            Err(ModelError::Validation(_))
        ));
        assert!(matches!(
            catalog.ensure_version_of(ServiceId::new(77), stable),
            Err(ModelError::UnknownService(_))
        ));
        assert!(matches!(
            catalog.ensure_version_of(search, VersionId::new(77)),
            Err(ModelError::UnknownVersion(_))
        ));
    }

    #[test]
    fn all_versions_iterates_everything() {
        let (catalog, _, _, _) = catalog_with_search();
        assert_eq!(catalog.all_versions().count(), 2);
    }
}
